/**
 * @file
 * The `vrdrepro` driver: one binary over the experiment registry.
 *
 * Commands:
 *   vrdrepro list                — name + description of every experiment
 *   vrdrepro describe <name>     — full flag schema and smoke parameters
 *   vrdrepro run <name...>|--all — run experiments through the campaign
 *                                  cache
 *
 * `run` options consumed by the driver itself: `--all`, `--smoke`
 * (prepend each experiment's tiny smoke parameters), `--no-cache`
 * (bypass the campaign cache), `--cache_dir=DIR` (persist cache
 * entries on disk), `--out_dir=DIR` (write each report to
 * DIR/<name>.txt instead of stdout). Both directories are created
 * before any experiment runs; one that cannot be created is a
 * configuration error (exit 2). Every other `--key=value` token
 * is forwarded to the selected experiments; a forwarded flag that no
 * selected experiment declares aborts with the real schema.
 *
 * Reports go to `out` (byte-identical to the pre-registry standalone
 * binaries); cache telemetry and errors go to `err`, so caching never
 * perturbs report bytes.
 */
#ifndef VRDDRAM_BENCH_COMMON_DRIVER_H
#define VRDDRAM_BENCH_COMMON_DRIVER_H

#include <iosfwd>

namespace vrddram::bench {

/// Entry point of the `vrdrepro` binary, parameterized over streams
/// so tests can drive it in-process. Returns the process exit code
/// (0 on success, 2 on usage/configuration errors).
int RunDriver(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace vrddram::bench

#endif  // VRDDRAM_BENCH_COMMON_DRIVER_H

#include "core/csv_export.h"

#include <ostream>
#include <string>

#include "common/error.h"

namespace vrddram::core {

namespace {

/// Status column for a record's shard. Results built by hand (tests,
/// ad-hoc analyses) carry no statuses; their records were by
/// construction not quarantined, so they export as "ok".
std::string StatusFor(const CampaignResult& result,
                      const SeriesRecord& record) {
  for (const ShardStatus& status : result.shards) {
    if (status.device == record.device &&
        status.temperature == record.temperature) {
      return FormatShardStatus(status);
    }
  }
  return "ok";
}

/// A short write that slips through leaves a silently truncated
/// export — or worse, a truncated checkpoint — so stream failure is a
/// hard error, not a best-effort condition.
void CheckStream(std::ostream& os, const char* what) {
  os.flush();
  VRD_FATAL_IF(!os, std::string("csv export: stream failed writing the ") +
                        what + " (short write?)");
}

}  // namespace

void WriteSummaryCsv(std::ostream& os, const CampaignResult& result) {
  os << "device,mfr,density_gbit,die_rev,row,pattern,t_on,temperature,"
        "rdt_guess,measurements,valid,min,max,mean,cv,unique_values,"
        "shard_status\n";
  for (const SeriesRecord& record : result.records) {
    const SortedFlips& flips = record.flips;
    const FlipMoments moments = ComputeMoments(flips);
    os << record.device << ',' << vrd::ToString(record.mfr) << ','
       << record.density_gbit << ',' << record.die_rev << ','
       << record.row << ',' << dram::ToString(record.pattern) << ','
       << ToString(record.t_on) << ',' << record.temperature << ','
       << record.rdt_guess << ',' << flips.measurements() << ','
       << flips.size << ',' << flips.run_values.front() << ','
       << flips.run_values.back() << ',' << moments.mean << ','
       << moments.cv << ',' << flips.run_values.size() << ','
       << StatusFor(result, record) << '\n';
  }
  CheckStream(os, "summary export");
}

}  // namespace vrddram::core

/**
 * @file
 * CSV export of campaign results so measurements can be post-processed
 * outside the suite (the paper's own figures were produced from such
 * dumps): a one-row-per-series analysis summary.
 */
#ifndef VRDDRAM_CORE_CSV_EXPORT_H
#define VRDDRAM_CORE_CSV_EXPORT_H

#include <iosfwd>

#include "core/campaign.h"

namespace vrddram::core {

/**
 * Summary format, one line per series:
 * device,mfr,density_gbit,die_rev,row,pattern,t_on,temperature,
 * rdt_guess,measurements,valid,min,max,mean,cv,unique_values,
 * shard_status
 * (shard_status is the record's shard outcome — "ok", "retried-<n>" or
 * "quarantined" — and "ok" for results without shard statuses). Every
 * column is read from the record's runs; a record keeps no measurement
 * order. Throws a FatalError for a series without flips.
 *
 * The writer verifies the stream after writing and raises FatalError
 * on failure, so a short write cannot pass as a complete export.
 */
void WriteSummaryCsv(std::ostream& os, const CampaignResult& result);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_CSV_EXPORT_H

/**
 * @file
 * Test helper: a checkpoint file around a hand-written payload (every
 * byte below the checksum line) with the current format version and the
 * payload's own checksum, so the parser, not the checksum, is what must
 * reject a bad field in it.
 */
#ifndef VRDDRAM_TESTS_CORE_CHECKPOINT_TEXT_H
#define VRDDRAM_TESTS_CORE_CHECKPOINT_TEXT_H

#include <cstdio>
#include <string>

#include "core/campaign_checkpoint.h"

namespace vrddram::core {

inline std::string SealCheckpoint(const std::string& payload) {
  char checksum[17];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(CheckpointChecksum(payload)));
  return "vrddram-campaign-checkpoint " +
         std::to_string(CampaignCheckpoint::kFormatVersion) +
         "\nchecksum " + checksum + "\n" + payload;
}

}  // namespace vrddram::core

#endif  // VRDDRAM_TESTS_CORE_CHECKPOINT_TEXT_H

#include "fuzz/harness.h"

namespace epidemic::fuzz {

const std::vector<TargetInfo>& AllTargets() {
  static const std::vector<TargetInfo> kTargets = {
      {"codec", Target_codec},
      {"wire_segment_v3", Target_wire_segment_v3},
      {"vv_delta", Target_vv_delta},
      {"snapshot", Target_snapshot},
      {"journal", Target_journal},
      {"server_frame", Target_server_frame},
      {"tokens", Target_tokens},
      // The seeded-defect demo decoder, last: not a production boundary.
      {"fixture", Target_fixture},
  };
  return kTargets;
}

const TargetInfo* FindTarget(std::string_view name) {
  for (const TargetInfo& t : AllTargets()) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

}  // namespace epidemic::fuzz

#include <string_view>

#include "core/wire.h"
#include "fuzz/harness.h"

namespace epidemic::fuzz {

/// Boundary: wire::DecodeShardSegmentBodyV3 — the zero-copy v3 segment
/// decoder (flags byte, base DBVV, delta-IVV items, indexed tails),
/// straight into a live replica's accept path.
///
/// Oracle: whatever the decoder accepts, the replica either rejects with a
/// clean Status or absorbs while keeping the §4.1/§5.2 invariants.
///
/// This target found the origin-seq reuse hole: after a conflict leaves
/// DBVV[k] below the largest seq in L[k], a crafted tail could claim an
/// already-used seq for a fresh item and break the log-order invariant
/// (now rejected by ValidatePropagationResponse's log merge-scan, kept
/// honest by the seq_reuse regression seed).
int Target_wire_segment_v3(const uint8_t* data, size_t size) {
  std::string_view body(reinterpret_cast<const char*>(data), size);
  wire::SegmentViewStorage storage;
  PropagationResponseView view;
  if (!wire::DecodeShardSegmentBodyV3(body, &storage, &view).ok()) return 0;

  auto replica = MakeSeededReplica();
  // Accept may legitimately fail (wrong vector widths, unknown origins):
  // failure must be a Status, never a crash or an invariant break.
  (void)replica->AcceptPropagation(view);
  OracleExpectOk(replica->CheckInvariants(), "wire_segment_v3",
                 "invariants after v3 segment accept");
  return 0;
}

}  // namespace epidemic::fuzz

EPIFUZZ_DEFINE_TARGET(wire_segment_v3)

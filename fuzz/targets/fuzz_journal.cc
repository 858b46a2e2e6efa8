#include <string_view>

#include "core/journal.h"
#include "fuzz/harness.h"

namespace epidemic::fuzz {

/// Boundary: journal recovery — ReplayJournalBytes runs the exact frame
/// loop Journal::Open uses (varint length + payload + CRC-32C,
/// torn-tail tolerant) and applies each record through the replica's
/// ordinary mutation paths.
///
/// Oracle: replay of arbitrary bytes either stops cleanly (torn/corrupt
/// tail), returns a Status, or applies records — and in every case the
/// replica's invariants hold afterward. The CRC gate means most mutations
/// stop the loop, which is itself the property being checked: nothing
/// unchecksummed may reach the state machine.
int Target_journal(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto replica = MakeSeededReplica();
  (void)ReplayJournalBytes(*replica, bytes);
  OracleExpectOk(replica->CheckInvariants(), "journal",
                 "invariants after journal replay");
  return 0;
}

}  // namespace epidemic::fuzz

EPIFUZZ_DEFINE_TARGET(journal)

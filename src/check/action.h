#ifndef EPIDEMIC_CHECK_ACTION_H_
#define EPIDEMIC_CHECK_ACTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "server/sharded_exchange.h"

namespace epidemic::check {

/// The model checker's schedule alphabet: everything that can happen to a
/// small cluster between two observations. Each action maps onto the real
/// protocol entry points (DESIGN.md §9).
enum class ActionKind {
  kUpdate,  // node `a` writes item `item` (a fresh, locally unique value)
  kDelete,  // node `a` tombstones item `item`
  kSync,    // node `a` pulls one anti-entropy exchange from node `b` (§5.1)
  kOob,     // node `a` out-of-bound fetches item `item` from node `b` (§5.2)
  kPump,    // node `a` runs intra-node propagation over all aux items (Fig. 4)
  kCrash,   // node `a` crashes and recovers from a snapshot of its state
};

/// One step of a schedule. `b` and `item` are meaningful only for the kinds
/// that use them (see ActionKind).
struct Action {
  ActionKind kind = ActionKind::kUpdate;
  uint32_t a = 0;     // acting node
  uint32_t b = 0;     // peer node (kSync, kOob)
  uint32_t item = 0;  // item index (kUpdate, kDelete, kOob)

  bool operator==(const Action&) const = default;
};

/// Item index -> the name used in the checked cluster ("k0", "k1", ...).
std::string ItemName(uint32_t item);

/// One-line textual form, e.g. "update 0 1", "sync 0 1", "oob 0 1 0".
/// FormatAction and ParseAction round-trip.
std::string FormatAction(const Action& action);

/// Parses one FormatAction line. InvalidArgument on malformed input or
/// unknown verbs.
Result<Action> ParseAction(std::string_view line);

/// A violation trace as stored on disk: the configuration needed to rebuild
/// the world plus the action schedule. The `mutation` string is the
/// --mutate spelling ("none", "amnesia", ...), kept as text so the trace
/// file stays self-describing.
struct TraceFile {
  uint32_t nodes = 2;
  uint32_t items = 2;
  uint32_t shards = 1;
  /// The serve budget; written only when it is not the default.
  uint64_t serve_budget = server::kServeBudgetBytes;
  std::string mutation = "none";
  std::vector<Action> actions;
};

/// Renders a trace file: `#`-comment header, `nodes/items/shards/mutate`
/// directives (and `serve-budget` when it is not the default), then one
/// action per line.
std::string EncodeTrace(const TraceFile& trace);

/// Parses EncodeTrace output. Blank lines and `#` comments are ignored;
/// unknown directives, `shards 0` and `serve-budget 0` are errors so
/// stale files fail loudly.
Result<TraceFile> DecodeTrace(std::string_view text);

}  // namespace epidemic::check

#endif  // EPIDEMIC_CHECK_ACTION_H_

// Experiment E9 (DESIGN.md): wire-size accounting through the REAL codec.
//
// §6: the propagation message contains the shipped data items "plus a
// constant amount of information per data item" (the IVV and one log
// record per origin that updated it). This table encodes actual
// PropagationResponse messages for growing m and measures bytes/item,
// separating metadata from payload.
//
// Experiment W1 (DESIGN.md §10): the same accounting for the sharded
// wire-v3 exchange (delta IVVs against the shard DBVV, indexed tails,
// tag 18). The v3 claim is about CONTROL bytes, so the table separates
// them from the payload. `--json` emits the W1 rows as a JSON object for
// scripts/run_benchmarks.sh.

#include <cstdio>
#include <cstring>
#include <string>

#include "core/replica.h"
#include "core/sharded_replica.h"
#include "net/codec.h"

namespace {

using epidemic::PropagationRequest;
using epidemic::PropagationResponse;
using epidemic::Replica;
using epidemic::ShardedPropagationResponse;
using epidemic::ShardedReplica;

void RunRow(int64_t m, size_t value_len, size_t num_nodes) {
  Replica src(0, num_nodes), dst(1, num_nodes);
  for (int64_t i = 0; i < m; ++i) {
    (void)src.Update("item" + std::to_string(i),
                     std::string(value_len, 'x'));
  }
  PropagationRequest req = dst.BuildPropagationRequest();
  PropagationResponse resp = src.HandlePropagationRequest(req);

  const std::string frame = epidemic::net::Encode(epidemic::net::Message(resp));
  // Payload bytes: the raw values. Everything else is protocol metadata.
  size_t payload = 0;
  for (const auto& item : resp.items) payload += item.value.size();
  const size_t metadata = frame.size() - payload;

  std::printf("%8lld %10zu %7zu %12zu %12zu %12zu %14.1f\n",
              static_cast<long long>(m), value_len, num_nodes, frame.size(),
              payload, metadata,
              m > 0 ? static_cast<double>(metadata) / static_cast<double>(m)
                    : 0.0);
}

// One W1 measurement: a sharded source with m single-origin updates serves
// a cold recipient. Payload is the item values, so control = frame -
// payload isolates the format's own cost: envelope, names, IVVs, tails.
struct W1Row {
  size_t nodes = 0;
  int64_t m = 0;
  size_t value_len = 0;
  size_t frame = 0;
  size_t payload = 0;
  size_t control = 0;
};

W1Row RunW1Row(size_t nodes, int64_t m, size_t value_len) {
  constexpr size_t kShards = 8;
  ShardedReplica src(0, nodes, kShards), dst(1, nodes, kShards);
  for (int64_t i = 0; i < m; ++i) {
    (void)src.Update("item" + std::to_string(i),
                     std::string(value_len, 'x'));
  }
  ShardedPropagationResponse resp =
      src.HandlePropagationRequestV3(dst.BuildPropagationRequestV3());

  W1Row row;
  row.nodes = nodes;
  row.m = m;
  row.value_len = value_len;
  row.frame = epidemic::net::Encode(epidemic::net::Message(resp)).size();
  row.payload = static_cast<size_t>(m) * value_len;
  row.control = row.frame - row.payload;
  return row;
}

constexpr size_t kW1Nodes[] = {4, 16, 32};
constexpr int64_t kW1Items[] = {64, 256, 4096};

void PrintW1Table() {
  std::printf(
      "\nW1: sharded exchange, wire v3 (8 shards, 64-byte values, single\n"
      "origin, cold recipient); control = frame - payload\n\n");
  std::printf("%7s %8s %10s %10s %10s %14s\n", "nodes", "m_items", "frame",
              "payload", "control", "control/item");
  for (size_t nodes : kW1Nodes) {
    for (int64_t m : kW1Items) {
      W1Row r = RunW1Row(nodes, m, /*value_len=*/64);
      std::printf("%7zu %8lld %10zu %10zu %10zu %14.1f\n", r.nodes,
                  static_cast<long long>(r.m), r.frame, r.payload, r.control,
                  static_cast<double>(r.control) / static_cast<double>(r.m));
    }
  }
  std::printf(
      "\nshape check: control bytes are flat in the replica count (a delta\n"
      "IVV costs one pair per WRITER, not one varint per node).\n");
}

void PrintW1Json() {
  std::printf("{\n  \"w1_rows\": [\n");
  bool first = true;
  for (size_t nodes : kW1Nodes) {
    for (int64_t m : kW1Items) {
      W1Row r = RunW1Row(nodes, m, /*value_len=*/64);
      std::printf(
          "%s    {\"nodes\": %zu, \"m_items\": %lld, \"value_len\": %zu, "
          "\"frame_bytes\": %zu, \"payload_bytes\": %zu, "
          "\"control_bytes\": %zu}",
          first ? "" : ",\n", r.nodes, static_cast<long long>(r.m),
          r.value_len, r.frame, r.payload, r.control);
      first = false;
    }
  }
  std::printf("\n  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      PrintW1Json();
      return 0;
    }
  }

  std::printf(
      "E9: encoded propagation-message size; metadata must be constant "
      "per shipped item (§6)\n\n");
  std::printf("%8s %10s %7s %12s %12s %12s %14s\n", "m_items",
              "value_len", "nodes", "frame_bytes", "payload", "metadata",
              "meta/item");
  for (int64_t m : {1, 16, 256, 4096}) {
    RunRow(m, /*value_len=*/64, /*num_nodes=*/4);
  }
  std::printf("\n");
  for (size_t value_len : {0ull, 64ull, 1024ull}) {
    RunRow(/*m=*/256, value_len, /*num_nodes=*/4);
  }
  std::printf("\n");
  for (size_t nodes : {2ull, 8ull, 32ull}) {
    RunRow(/*m=*/256, /*value_len=*/64, nodes);
  }
  std::printf(
      "\nshape check: metadata/item is flat in m and in value size, and\n"
      "grows only with the replica count (one IVV entry and potentially\n"
      "one log record per origin node).\n");

  // The no-op exchange: a "you-are-current" reply is a handful of bytes,
  // independent of everything.
  Replica a(0, 4), b(1, 4);
  for (int i = 0; i < 1000; ++i) (void)b.Update("k" + std::to_string(i), "v");
  (void)epidemic::PropagateOnce(b, a);
  PropagationResponse current = b.HandlePropagationRequest(
      a.BuildPropagationRequest());
  std::printf("\n'you-are-current' reply over a 1000-item database: %zu bytes\n",
              epidemic::net::Encode(epidemic::net::Message(current)).size());

  PrintW1Table();
  return 0;
}

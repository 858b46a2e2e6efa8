// In-process per-layer measurements for the traced run.
//
// Reproduces one workload's exchange shape inside the driver process and
// times each layer's public entry points with spans:
//   - net:     TcpTransport::CallInto against an in-process TcpServer;
//   - server:  ReplicaServer::PullFrom over loopback, with the serving
//              side's RequestHandler wrapped in a span;
//   - runtime: ShardScheduler::ExecuteBatchIndexed of S no-op tasks;
//   - core, wire, journal: the same exchange once more, stage by stage —
//              snapshot, request codec, call, select (Fig. 2), segment
//              encode, decode, accept (Fig. 3/4) and the journaled accept.
// The stage sum is then compared with the traced PullFrom time.
#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <unordered_set>

#include "bench.h"
#include "common/random.h"
#include "core/journal.h"
#include "core/sharded_replica.h"
#include "core/wire.h"
#include "net/codec.h"
#include "runtime/scheduler.h"

namespace perfbench {
namespace {

using epidemic::JournaledShardedReplica;
using epidemic::Rng;
using epidemic::ShardedReplica;
namespace net = epidemic::net;
namespace wire = epidemic::wire;

/// Replies to every request with a fixed-size frame (prebuilt, shared, so
/// the handler itself costs next to nothing).
class FixedReplyHandler : public net::RequestHandler {
 public:
  explicit FixedReplyHandler(size_t bytes) { SetSize(bytes); }
  void SetSize(size_t bytes) {
    auto parts = std::make_shared<std::vector<std::string>>();
    parts->push_back(std::string(std::max<size_t>(bytes, 1), 'x'));
    std::lock_guard<std::mutex> lock(mu_);
    reply_ = std::move(parts);
  }
  std::string HandleRequest(std::string_view) override {
    std::lock_guard<std::mutex> lock(mu_);
    return (*reply_)[0];
  }
  void HandleRequestV(std::string_view, net::VectoredReply* reply) override {
    reply->Recycle();
    std::lock_guard<std::mutex> lock(mu_);
    reply->shared = reply_;
  }

 private:
  std::mutex mu_;
  std::shared_ptr<const std::vector<std::string>> reply_;
};

/// The source server's handler with a span around every request; the span
/// is parented to the pull that caused it (`parent`), across threads.
class TracedHandler : public net::RequestHandler {
 public:
  TracedHandler(epidemic::server::ReplicaServer* inner,
                const std::atomic<int64_t>* parent)
      : inner_(inner), parent_(parent) {}
  std::string HandleRequest(std::string_view request) override {
    ScopedSpan span("server.handle", parent_->load());
    return inner_->HandleRequest(request);
  }
  void HandleRequestV(std::string_view request,
                      net::VectoredReply* reply) override {
    ScopedSpan span("server.handle", parent_->load());
    inner_->HandleRequestV(request, reply);
  }

 private:
  epidemic::server::ReplicaServer* inner_;
  const std::atomic<int64_t>* parent_;
};

/// Per-round stage totals next to the spans.
class Stages {
 public:
  template <typename Fn>
  void Time(const char* name, Fn&& fn) {
    ScopedSpan span(name);
    const int64_t start = NowNs();
    fn();
    round_[name] += UsSince(start);
  }
  void EndRound() {
    for (auto& [name, us] : round_) per_round_[name].Add(us);
    round_.clear();
  }
  Samples& operator[](const std::string& name) { return per_round_[name]; }

 private:
  std::map<std::string, double> round_;
  std::map<std::string, Samples> per_round_;
};

std::string Value(Rng& rng, size_t len, uint64_t tag) {
  std::string v = "v" + std::to_string(tag) + ".";
  while (v.size() < len) v.push_back(static_cast<char>('a' + rng.Uniform(26)));
  return v;
}

std::string Key(uint64_t i) { return "k" + std::to_string(i); }

uint64_t DirBytes(const std::string& dir, const char* file) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.path().filename() == file) total += e.file_size(ec);
  }
  return total;
}


std::unique_ptr<JournaledShardedReplica> OpenDurable(const std::string& dir,
                                                     epidemic::NodeId id) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto r = JournaledShardedReplica::Open(dir, id, kNodes, kShards);
  return r.ok() ? std::move(*r) : nullptr;
}

/// net: a probe-sized round trip, many times.
void MeasureNet(RunResult* out) {
  FixedReplyHandler handler(16);
  net::TcpServer server(&handler);
  net::TcpTransport transport(1);
  if (!server.Start(0).ok()) {
    out->Fail("layer bench: cannot listen");
    return;
  }
  transport.SetPeerPort(0, server.port());
  const std::string request(24, 'r');
  std::string response;
  Samples small;
  for (int i = 0; i < 3000; ++i) {
    ScopedSpan span("net.call_small");
    const int64_t start = NowNs();
    if (!transport.CallInto(0, request, &response).ok()) {
      out->Fail("layer bench: small call failed");
      break;
    }
    if (i >= 200) small.Add(UsSince(start));  // first calls warm the path
  }
  out->Layer("net.call_small_p50_us", small.Quantile(0.5), "us");
  out->Layer("net.call_small_p99_us", small.Tail(), "us");
}

/// runtime: fan-out/join of S no-op tasks at 0 and 4 owner workers.
void MeasureRuntime(RunResult* out) {
  for (size_t workers : {size_t{0}, size_t{4}}) {
    epidemic::runtime::ShardScheduler::Options o;
    o.num_shards = kShards;
    o.workers = workers;
    epidemic::runtime::ShardScheduler sched(o);
    std::vector<size_t> shards(kShards);
    for (size_t k = 0; k < kShards; ++k) shards[k] = k;
    Samples batch;
    const char* name = workers == 0 ? "runtime.batch0" : "runtime.batch4";
    for (int i = 0; i < 3000; ++i) {
      ScopedSpan span(name);
      const int64_t start = NowNs();
      sched.ExecuteBatchIndexed(shards, epidemic::runtime::TaskKind::kOther,
                                /*mutates=*/false,
                                [](const epidemic::runtime::ShardToken&, size_t) {});
      if (i >= 200) batch.Add(UsSince(start));
    }
    out->Layer(std::string(name) + "_p50_us", batch.Quantile(0.5), "us");
  }
}

/// journal: journaled against plain sharded Update, and bytes per update.
void MeasureJournalUpdates(const std::string& dir, const LayerShape& shape,
                           uint64_t seed, RunResult* out) {
  auto journaled = OpenDurable(dir + "/journal-update", 0);
  if (!journaled) {
    out->Fail("layer bench: cannot open journal dir");
    return;
  }
  ShardedReplica plain(0, kNodes, kShards);
  Rng rng(seed);
  constexpr int kUpdates = 5000;
  Samples j_us, p_us;
  const uint64_t before = DirBytes(dir + "/journal-update", "journal.log");
  for (int i = 0; i < kUpdates; ++i) {
    const std::string key = Key(rng.Uniform(10000));
    const std::string value = Value(rng, shape.value_len, static_cast<uint64_t>(i));
    {
      ScopedSpan span("journal.update");
      const int64_t start = NowNs();
      if (!journaled->Update(key, value).ok()) {
        out->Fail("layer bench: journaled update failed");
        return;
      }
      j_us.Add(UsSince(start));
    }
    ScopedSpan span("core.update");
    const int64_t start = NowNs();
    if (!plain.Update(key, value).ok()) {
      out->Fail("layer bench: update failed");
      return;
    }
    p_us.Add(UsSince(start));
  }
  const uint64_t after = DirBytes(dir + "/journal-update", "journal.log");
  out->Layer("journal.update_p50_us", j_us.Quantile(0.5), "us");
  out->Layer("journal.update_plain_p50_us", p_us.Quantile(0.5), "us");
  out->Layer("journal.bytes_per_update",
             static_cast<double>(after - before) / kUpdates, "B");
}

}  // namespace

void MeasureLayers(const RunConfig& cfg, const LayerShape& shape,
                   RunResult* out) {
  PinSelf(-1, cfg.cpus);  // in-process work may use every CPU
  const std::string dir = cfg.workdir + "/layers";
  RemoveTree(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  MeasureNet(out);
  MeasureRuntime(out);
  MeasureJournalUpdates(dir, shape, cfg.seed, out);

  // ---- server: a source and a recipient ReplicaServer over loopback.
  epidemic::server::ReplicaServer::Options sopts;
  sopts.num_shards = kShards;
  net::TcpTransport src_transport(kNodes);
  net::TcpTransport dst_transport(kNodes);
  std::unique_ptr<epidemic::server::ReplicaServer> src, dst;
  if (shape.durable) {
    auto s = OpenDurable(dir + "/server-src", 0);
    auto d = OpenDurable(dir + "/server-dst", 1);
    if (!s || !d) {
      out->Fail("layer bench: cannot open server dirs");
      return;
    }
    src = std::make_unique<epidemic::server::ReplicaServer>(std::move(s), &src_transport, sopts);
    dst = std::make_unique<epidemic::server::ReplicaServer>(std::move(d), &dst_transport, sopts);
  } else {
    src = std::make_unique<epidemic::server::ReplicaServer>(0, kNodes, &src_transport, sopts);
    dst = std::make_unique<epidemic::server::ReplicaServer>(1, kNodes, &dst_transport, sopts);
  }
  std::atomic<int64_t> pull_span{-1};
  TracedHandler traced(src.get(), &pull_span);
  net::TcpServer listener(&traced);
  if (!listener.Start(0).ok()) {
    out->Fail("layer bench: cannot listen");
    return;
  }
  dst_transport.SetPeerPort(0, listener.port());

  // ---- stage-by-stage twins: plain replicas A (source) and B
  // (recipient), and J, a journaled twin of B.
  ShardedReplica a(0, kNodes, kShards);
  ShardedReplica b(1, kNodes, kShards);
  auto j = OpenDurable(dir + "/stage-journal", 1);
  FixedReplyHandler call_handler(16);
  net::TcpServer call_server(&call_handler);
  net::TcpTransport call_transport(1);
  if (!j || !call_server.Start(0).ok()) {
    out->Fail("layer bench: cannot set up the stage exchange");
    return;
  }
  call_transport.SetPeerPort(0, call_server.port());
  epidemic::BufferPool pool;

  Rng rng(cfg.seed ^ 0x1a7e5ULL);
  Samples server_update;
  for (uint64_t i = 0; i < shape.preload_items; ++i) {
    const std::string key = Key(i);
    const std::string value = Value(rng, shape.value_len, i);
    if (!src->Update(key, value).ok() || !a.Update(key, value).ok()) {
      out->Fail("layer bench: preload failed");
      return;
    }
  }

  Stages stages;
  double items_total = 0, frame_bytes = 0, payload_bytes = 0;
  std::string response;
  // One stage-by-stage exchange A -> B (and J). Returns items shipped.
  const auto stage_exchange = [&](bool probe) -> double {
    ScopedSpan pull("stage.pull");
    epidemic::ShardedPropagationRequest req;
    stages.Time("core.snapshot", [&] { req = b.BuildPropagationRequestV3(); });
    if (probe) {
      // The quiescent round: an epoch probe carries no shard DBVVs.
      req.shard_dbvvs.clear();
      req.flags |= epidemic::kPropFlagEpochProbe;
      req.last_epoch = 7;
    }
    std::string req_frame;
    stages.Time("wire.request", [&] {
      req_frame = net::Encode(net::Message(req));
      auto decoded = net::Decode(req_frame);
      if (!decoded.ok()) out->Fail("layer bench: request decode failed");
    });
    epidemic::ShardedPropagationResponse resp;
    resp.num_shards = kShards;
    resp.wire_version = epidemic::kWireV3;
    resp.epoch = 7;
    if (!probe) {
      for (size_t k = 0; k < kShards; ++k) {
        const epidemic::PropagationResponseView* view = nullptr;
        stages.Time("core.select", [&] {
          view = &a.HandleShardPropagationView(
              k, epidemic::PropagationRequest{req.requester, req.shard_dbvvs[k]});
        });
        if (view->you_are_current) continue;
        std::string body = pool.Get();
        stages.Time("wire.encode", [&] {
          wire::EncodeShardSegmentBodyV3(*view, a.shard(k).dbvv(),
                                         wire::V3SegmentOptions{}, &pool, &body);
        });
        resp.segments.push_back({static_cast<uint32_t>(k), std::move(body)});
      }
    }
    std::string frame;
    stages.Time("wire.encode", [&] {
      net::Message msg(std::move(resp));
      frame = net::Encode(msg);
      auto& sent = std::get<epidemic::ShardedPropagationResponse>(msg);
      for (auto& seg : sent.segments) pool.Put(std::move(seg.body));
    });
    call_handler.SetSize(frame.size());
    stages.Time("net.call_frame", [&] {
      if (!call_transport.CallInto(0, req_frame, &response).ok()) {
        out->Fail("layer bench: frame call failed");
      }
    });
    wire::ShardedResponseEnvelopeView env;
    std::vector<wire::SegmentViewStorage> storage;
    std::vector<epidemic::PropagationResponseView> views;
    stages.Time("wire.decode", [&] {
      epidemic::ByteReader reader(std::string_view(frame).substr(1));
      if (!wire::DecodeShardedPropagationResponseEnvelopeV3(reader, &env).ok()) {
        out->Fail("layer bench: envelope decode failed");
        return;
      }
      storage.resize(env.segments.size());
      views.resize(env.segments.size());
      for (size_t i = 0; i < env.segments.size(); ++i) {
        if (!wire::DecodeShardSegmentBodyV3(env.segments[i].body, &storage[i], &views[i]).ok()) {
          out->Fail("layer bench: segment decode failed");
        }
      }
    });
    double items = 0, payload = 0;
    for (const auto& v : views) {
      items += static_cast<double>(v.items.size());
      for (const auto& item : v.items) payload += static_cast<double>(item.name.size() + item.value.size());
    }
    stages.Time("core.accept", [&] {
      for (size_t i = 0; i < views.size(); ++i) {
        if (!b.AcceptShardPropagation(env.segments[i].shard, views[i]).ok()) {
          out->Fail("layer bench: accept failed");
        }
      }
    });
    stages.Time("journal.accept", [&] {
      for (const auto& seg : env.segments) {
        if (!j->AcceptShardPropagationSegmentV3(seg.shard, seg.body).ok()) {
          out->Fail("layer bench: journaled accept failed");
        }
      }
    });
    frame_bytes += static_cast<double>(frame.size());
    payload_bytes += payload;
    return items;
  };

  // Initial full copies (untimed): B and J via the stage path, the
  // recipient server via PullFrom. The tracer keeps these spans too; the
  // per-round samples below start after them.
  const bool quiescent = shape.items_per_pull == 0;
  stage_exchange(false);
  if (!dst->PullFrom(0).ok()) {
    out->Fail("layer bench: initial pull failed");
    return;
  }
  stages = Stages();
  items_total = frame_bytes = payload_bytes = 0;
  const auto a_before = a.TotalStats();
  const auto b_before = b.TotalStats();

  const int rounds = shape.items_per_pull >= 1000 ? 20 : 300;
  Samples pull_us;
  for (int r = 0; r < rounds; ++r) {
    // Dirty the same m distinct items at both sources.
    std::unordered_set<uint64_t> picked;
    while (picked.size() < shape.items_per_pull) {
      const uint64_t idx = rng.Uniform(std::max<uint64_t>(shape.preload_items, 1));
      if (!picked.insert(idx).second) continue;
      const std::string key = Key(idx);
      const std::string value = Value(rng, shape.value_len, 1000000 + idx);
      if (!src->Update(key, value).ok() || !a.Update(key, value).ok()) {
        out->Fail("layer bench: update failed");
      }
    }
    {
      ScopedSpan span("server.pull");
      pull_span.store(span.id());
      const int64_t start = NowNs();
      if (!dst->PullFrom(0).ok()) out->Fail("layer bench: pull failed");
      pull_us.Add(UsSince(start));
      pull_span.store(-1);
    }
    items_total += stage_exchange(quiescent);
    stages.EndRound();
  }
  const auto a_after = a.TotalStats();
  const auto b_after = b.TotalStats();
  // Per-item figures; a quiescent exchange ships nothing, so there they
  // are per exchange instead.
  const double base = items_total > 0 ? items_total : rounds;
  const auto per_item = [base](double v) { return v / base; };

  for (int i = 0; i < 3000; ++i) {
    const uint64_t idx = rng.Uniform(std::max<uint64_t>(shape.preload_items, 1));
    const std::string value = Value(rng, shape.value_len, 2000000 + idx);
    ScopedSpan span("server.update");
    const int64_t start = NowNs();
    if (!src->Update(Key(idx), value).ok()) out->Fail("layer bench: update failed");
    server_update.Add(UsSince(start));
  }

  Samples server_read;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = Key(rng.Uniform(std::max<uint64_t>(shape.preload_items, 1)));
    ScopedSpan span("server.read");
    const int64_t start = NowNs();
    if (!src->Read(key).ok()) out->Fail("layer bench: read failed");
    server_read.Add(UsSince(start));
  }

  Samples handle_self;
  Tracer::Get().Durations("server.handle", nullptr, &handle_self);
  const auto sum_of = [&stages](const char* name) { return stages[name].Sum(); };
  const double decode_us = sum_of("wire.decode");
  const double accept_us = sum_of("core.accept");
  // The journaled accept decodes and applies the segments itself; what it
  // adds on top of the plain decode + accept is the journal's own cost.
  const double journal_only_us =
      std::max(0.0, sum_of("journal.accept") - decode_us - accept_us);

  out->Layer("net.call_frame_p50_us", stages["net.call_frame"].Quantile(0.5), "us");
  out->Layer("server.pull_p50_us", pull_us.Quantile(0.5), "us");
  out->Layer("server.handle_p50_us", handle_self.Quantile(0.5), "us");
  out->Layer("server.update_p50_us", server_update.Quantile(0.5), "us");
  out->Layer("server.read_p50_us", server_read.Quantile(0.5), "us");
  out->Layer("core.snapshot_p50_us", stages["core.snapshot"].Quantile(0.5), "us");
  out->Layer("core.select_us_per_item", per_item(sum_of("core.select")), "us");
  out->Layer("core.accept_us_per_item", per_item(accept_us), "us");
  out->Layer("core.records_selected_per_item",
             per_item(static_cast<double>(a_after.log_records_selected -
                                          a_before.log_records_selected)),
             "records");
  out->Layer("core.ivv_cmp_per_item",
             per_item(static_cast<double>(b_after.item_ivv_comparisons -
                                          b_before.item_ivv_comparisons)),
             "comparisons");
  out->Layer("wire.encode_us_per_item", per_item(sum_of("wire.encode")), "us");
  out->Layer("wire.decode_us_per_item", per_item(decode_us), "us");
  out->Layer("wire.control_bytes_per_item",
             per_item(frame_bytes - payload_bytes), "B");
  out->Layer("journal.accept_us_per_item",
             per_item(journal_only_us), "us");

  // Stage sum against the traced PullFrom, per round (medians). A probe
  // round never snapshots or selects, so those stages leave the sum.
  std::vector<std::string> in_sum = {"wire.request", "wire.encode", "net.call_frame",
                                     "wire.decode"};
  if (!quiescent) {
    for (const char* s : {"core.snapshot", "core.select", "core.accept"}) in_sum.push_back(s);
  }
  double stage_sum = 0;
  for (const std::string& s : in_sum) stage_sum += stages[s].Quantile(0.5);
  if (shape.durable && !quiescent) stage_sum += journal_only_us / rounds;
  const double pull_p50 = pull_us.Quantile(0.5);
  out->Layer("trace.stage_sum_us", stage_sum, "us");
  out->Layer("trace.pull_traced_us", pull_p50, "us");
  out->Layer("trace.pull_uncovered_frac",
             pull_p50 > 0 ? 1.0 - stage_sum / pull_p50 : 0, "ratio");
  out->InfoNum("layers.rounds", rounds);
  out->InfoNum("layers.items_per_round", static_cast<double>(shape.items_per_pull));
  out->InfoNum("layers.frame_bytes", frame_bytes / rounds);

  listener.Stop();
  call_server.Stop();
  dst.reset();
  src.reset();
  j.reset();
  RemoveTree(dir);
}

}  // namespace perfbench

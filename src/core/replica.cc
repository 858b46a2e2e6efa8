#include "core/replica.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"
#include "core/journal.h"
#include "vv/vv_codec.h"

namespace epidemic {

Replica::Replica(NodeId id, size_t num_nodes, ConflictListener* listener)
    : id_(id),
      num_nodes_(num_nodes),
      listener_(listener),
      store_(num_nodes),
      dbvv_(num_nodes),
      logs_(num_nodes),
      peer_dbvv_(num_nodes, VersionVector(num_nodes)) {
  EPI_CHECK(id < num_nodes) << "node id " << id << " out of range for "
                            << num_nodes << " nodes";
}

Replica::~Replica() = default;

// ---------------------------------------------------------------------------
// User operations (§5.3).

Status Replica::Update(std::string_view name, std::string_view value) {
  return ApplyUserWrite(name, value, /*deleted=*/false);
}

Status Replica::Delete(std::string_view name) {
  return ApplyUserWrite(name, /*value=*/"", /*deleted=*/true);
}

Status Replica::ApplyUserWrite(std::string_view name, std::string_view value,
                               bool deleted) {
  if (name.empty()) return Status::InvalidArgument("empty item name");
  if (journal_ != nullptr) {
    EPI_RETURN_NOT_OK(deleted ? journal_->AppendDelete(name)
                              : journal_->AppendUpdate(name, value));
  }
  Item& item = store_.GetOrCreate(name);
  if (item.HasAux()) {
    // Out-of-bound item: apply on the auxiliary copy, log a redo record
    // carrying the IVV *before* the update, then bump the auxiliary IVV.
    // The DBVV and the log vector are deliberately untouched.
    aux_log_.Append(item.id, item.aux->ivv,
                    UpdateOp{std::string(value), deleted});
    item.aux->value = value;
    item.aux->deleted = deleted;
    item.aux->ivv.Increment(id_);
    ++stats_.updates_aux;
  } else {
    // Regular item: update the copy and do full bookkeeping —
    // v_ii(x) += 1, V_ii += 1, append (x, V_ii) to L_ii (§5.3).
    item.value = value;
    item.deleted = deleted;
    item.ivv.Increment(id_);
    dbvv_.Increment(id_);
    logs_.ForOrigin(id_).AddLogRecord(item.id, dbvv_[id_]);
    ++stats_.updates_regular;
  }
  return Status::OK();
}

Result<std::string> Replica::Read(std::string_view name) {
  ++stats_.reads;
  const Item* item = store_.Find(name);
  if (item == nullptr || item->UserDeleted()) {
    return Status::NotFound("no item named '" + std::string(name) + "'");
  }
  return item->UserValue();
}

Status Replica::ResolveConflict(std::string_view name,
                                const VersionVector& remote_vv,
                                std::string_view value) {
  if (remote_vv.size() != num_nodes_) {
    return Status::InvalidArgument("remote version vector of wrong width");
  }
  Item* item = store_.Find(name);
  if (item == nullptr) {
    return Status::NotFound("no item named '" + std::string(name) + "'");
  }
  if (item->HasAux()) {
    return Status::FailedPrecondition(
        "item '" + std::string(name) +
        "' is out-of-bound; resolve after the auxiliary copy retires");
  }
  if (!VersionVector::Conflicts(remote_vv, item->ivv)) {
    return Status::InvalidArgument(
        "vectors do not conflict; use Update for ordinary writes");
  }
  if (journal_ != nullptr) {
    EPI_RETURN_NOT_OK(journal_->AppendResolve(name, remote_vv, value));
  }

  // The resolved copy semantically reflects both branches: merge the IVVs
  // (and grow the DBVV by what the remote branch adds), then apply the
  // chosen value as a fresh local update with full bookkeeping.
  VersionVector merged = item->ivv;
  merged.MergeMax(remote_vv);
  dbvv_.AddDelta(merged, item->ivv);
  item->ivv = merged;

  item->value = value;
  item->deleted = false;
  item->ivv.Increment(id_);
  dbvv_.Increment(id_);
  logs_.ForOrigin(id_).AddLogRecord(item->id, dbvv_[id_]);
  ++stats_.conflicts_resolved;
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>> Replica::Scan(
    std::string_view prefix, size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Item& item : store_) {
    if (item.UserDeleted()) continue;
    if (item.name.size() < prefix.size() ||
        std::string_view(item.name).substr(0, prefix.size()) != prefix) {
      continue;
    }
    out.emplace_back(item.name, item.UserValue());
  }
  std::sort(out.begin(), out.end());
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

std::string Replica::DebugString() const {
  size_t aux_copies = 0;
  size_t tombstones = 0;
  for (const Item& item : store_) {
    if (item.HasAux()) ++aux_copies;
    if (item.deleted) ++tombstones;
  }
  std::string out;
  out += "replica " + std::to_string(id_) + "/" + std::to_string(num_nodes_);
  out += " dbvv=" + dbvv_.ToString();
  out += " items=" + std::to_string(store_.size());
  out += " tombstones=" + std::to_string(tombstones);
  out += " log_records=" + std::to_string(logs_.TotalRecords());
  out += " aux_copies=" + std::to_string(aux_copies);
  out += " aux_records=" + std::to_string(aux_log_.size());
  out += "\nstats:";
  out += " updates=" + std::to_string(stats_.updates_regular) + "+" +
         std::to_string(stats_.updates_aux) + "aux";
  out += " reads=" + std::to_string(stats_.reads);
  out += " prop_served=" + std::to_string(stats_.propagation_requests_served);
  out += " current_replies=" + std::to_string(stats_.you_are_current_replies);
  out += " items_shipped=" + std::to_string(stats_.items_shipped);
  out += " items_adopted=" + std::to_string(stats_.items_adopted);
  out += " conflicts=" + std::to_string(stats_.conflicts_detected);
  out += " oob_served=" + std::to_string(stats_.oob_requests_served);
  out += " intra_node=" + std::to_string(stats_.intra_node_ops_applied);
  return out;
}

// ---------------------------------------------------------------------------
// Update propagation (§5.1).

PropagationRequest Replica::BuildPropagationRequest() const {
  return PropagationRequest{id_, dbvv_};
}

const PropagationResponseView& Replica::HandlePropagationView(
    const PropagationRequest& req) {
  ++stats_.propagation_requests_served;

  // Stability tracking: the request tells us how far the peer has come.
  if (req.requester < num_nodes_ && req.requester != id_ &&
      req.dbvv.size() == num_nodes_) {
    peer_dbvv_[req.requester].MergeMax(req.dbvv);
  }

  PropagationResponseView& resp = scratch_.serve_view;

  // One DBVV comparison decides, in O(1) w.r.t. the number of data items,
  // whether any propagation is needed at all (Fig. 2, first test). The
  // you-are-current reply constructs nothing — Reset keeps capacity.
  ++stats_.dbvv_comparisons;
  if (VersionVector::DominatesOrEqual(req.dbvv, dbvv_)) {
    resp.Reset(0);
    resp.you_are_current = true;
    ++stats_.you_are_current_replies;
    return resp;
  }

  // Build the tail vector D: for every origin k the requester lags on, the
  // suffix of L_jk with seq > V_i[k] — exactly the updates i missed. All
  // buffers come from the scratch area, so in steady state this allocates
  // nothing.
  resp.Reset(num_nodes_);
  scratch_.item_index.resize(store_.size());
  std::vector<LogRecord>& tail_buf = scratch_.tail_buf;
  std::vector<Item*>& selected = scratch_.selected;
  selected.clear();
  for (NodeId k = 0; k < num_nodes_; ++k) {
    if (dbvv_[k] <= req.dbvv[k]) continue;
    const OriginLog& log = logs_.ForOrigin(k);
    tail_buf.clear();
    tail_buf.reserve(log.size());
    log.CollectTail(req.dbvv[k], &tail_buf);
    resp.tails[k].reserve(tail_buf.size());
    for (const LogRecord& rec : tail_buf) {
      Item& item = store_.Get(rec.item);
      ++stats_.log_records_selected;
      // The IsSelected flag (§6) deduplicates S across tails in O(1) per
      // record, without hashing. Selection order assigns each item its
      // index into S, recorded in the scratch map so tail records can
      // carry it (the v3 segment encoder ships indices, not names).
      if (!item.is_selected) {
        item.is_selected = true;
        scratch_.item_index[item.id] = static_cast<uint32_t>(selected.size());
        selected.push_back(&item);
      }
      resp.tails[k].push_back(WireLogRecordView{
          item.name, rec.seq, scratch_.item_index[item.id]});
    }
  }

  // Emit S: the regular copy and IVV of every referenced item — as views
  // into the live store — flipping the flags back so the store is clean
  // for the next request.
  resp.items.reserve(selected.size());
  for (Item* item : selected) {
    resp.items.push_back(
        WireItemView{item->name, item->value, item->deleted, &item->ivv});
    item->is_selected = false;
    ++stats_.items_shipped;
  }
  return resp;
}

Status Replica::ValidatePropagationResponse(
    const PropagationResponseView& resp, std::vector<Item*>* resolved) {
  if (resp.tails.size() != num_nodes_) {
    return Status::InvalidArgument(
        "tail vector has " + std::to_string(resp.tails.size()) +
        " components, expected " + std::to_string(num_nodes_));
  }
  // The item set S must carry well-formed IVVs and no duplicates. Each item
  // costs one store lookup; a stored item is marked with its IsSelected
  // flag (§6) — serve and accept never overlap on a replica — so a repeat
  // is caught without hashing. Only names not stored yet need a set.
  resolved->clear();
  resolved->reserve(resp.items.size());
  std::unordered_set<std::string_view> fresh_names;
  Status status = Status::OK();
  for (const WireItemView& wi : resp.items) {
    if (wi.name.empty()) {
      status = Status::InvalidArgument("empty item name in response");
      break;
    }
    if (wi.ivv == nullptr || wi.ivv->size() != num_nodes_) {
      status = Status::InvalidArgument(
          "received IVV of wrong width for item '" + std::string(wi.name) +
          "'");
      break;
    }
    Item* item = store_.Find(wi.name);
    const bool repeat = item != nullptr
                            ? std::exchange(item->is_selected, true)
                            : !fresh_names.insert(wi.name).second;
    if (repeat) {
      status = Status::InvalidArgument("duplicate item '" +
                                       std::string(wi.name) + "' in response");
      break;
    }
    resolved->push_back(item);
  }
  for (Item* item : *resolved) {
    if (item != nullptr) item->is_selected = false;
  }
  EPI_RETURN_NOT_OK(status);

  // Tails must be strictly increasing, and every record must name an item
  // shipped in S — resolved through the index the v3 wire carries. A
  // record at or below our per-origin horizon V_i[k] (what the source's
  // CollectTail selects against) is one we may already hold: a source
  // answering an older request re-ships it. It is legitimate only if
  // P_k(x) already holds that seq or a newer one; the accept then skips
  // it. A response violating any of this cannot have come from a correct
  // SendPropagation, and applying it could break the log-order invariant.
  //
  // The horizon is necessary but not sufficient: DBVV[k] is a sum of
  // item-IVV components, and after a conflict drops records it falls below
  // the largest seq already in L[k]. A forged tail can then claim a seq
  // L[k] already holds for a *different* item and, past the adoption
  // filter, insert a duplicate that breaks origin order (found by fuzzing
  // the v3 segment decoder). Each origin seq names exactly one update of
  // one item, so an equal seq is legitimate only when it names the same
  // item (a re-shipped record, replaced in place via P(x)). Only the r
  // records of L[k] above the horizon can collide with a record above it,
  // so the merge-scan of the sorted log against the sorted tail starts
  // there, found by walking back from the log's tail.
  for (NodeId k = 0; k < num_nodes_; ++k) {
    const OriginLog& log = logs_.ForOrigin(k);
    const UpdateCount horizon = dbvv_[k];
    ItemId existing = kNoItem;
    for (ItemId x = log.tail(); x != kNoItem && log.seq(x) > horizon;
         x = log.prev(x)) {
      existing = x;
    }
    UpdateCount prev = 0;
    for (const WireLogRecordView& rec : resp.tails[k]) {
      if (rec.seq <= prev) {
        return Status::InvalidArgument(
            "tail for origin " + std::to_string(k) +
            " is not an ordered suffix beyond our horizon");
      }
      prev = rec.seq;
      if (rec.item_index >= resp.items.size() ||
          resp.items[rec.item_index].name != rec.item_name) {
        return Status::InvalidArgument("tail record references item '" +
                                       std::string(rec.item_name) +
                                       "' not shipped in S");
      }
      const Item* item = (*resolved)[rec.item_index];
      if (rec.seq <= horizon) {
        const UpdateCount held = item != nullptr ? log.seq(item->id) : 0;
        if (held < rec.seq) {
          return Status::InvalidArgument(
              "tail for origin " + std::to_string(k) + " re-ships seq " +
              std::to_string(rec.seq) + " of item '" +
              std::string(rec.item_name) +
              "', at or below our horizon but not held");
        }
        continue;
      }
      while (existing != kNoItem && log.seq(existing) < rec.seq) {
        existing = log.next(existing);
      }
      if (existing != kNoItem && log.seq(existing) == rec.seq &&
          (item == nullptr || existing != item->id)) {
        return Status::InvalidArgument(
            "tail record for origin " + std::to_string(k) + " reuses seq " +
            std::to_string(rec.seq) + " held by item '" +
            store_.Get(existing).name + "'");
      }
    }
  }
  return Status::OK();
}

Status Replica::AcceptPropagation(const PropagationResponseView& resp) {
  if (resp.you_are_current) return Status::OK();

  // Validate the whole response before touching any state, so malformed or
  // malicious input is rejected atomically (the paper assumes correct
  // peers; a production receiver cannot). `copied[i]` is S[i]'s stored
  // copy, or nullptr for a name not stored yet.
  std::vector<Item*> copied;
  EPI_RETURN_NOT_OK(ValidatePropagationResponse(resp, &copied));
  if (journal_ != nullptr) {
    EPI_RETURN_NOT_OK(journal_->AppendPropagation(resp, dbvv_));
  }
  // Tail records at or below the horizon were validated as already held.
  const VersionVector horizon = dbvv_;

  // Step 2 (Fig. 3): adopt every received copy that strictly dominates the
  // local regular copy. Items whose copies were not adopted (conflicts, and
  // the defensively handled impossible cases) have their records dropped
  // from the tails, as the paper prescribes for conflicts: their `copied`
  // entry becomes nullptr. Adoption copies each name and value exactly
  // once — from the view's backing bytes into the store; nothing else is
  // materialized.
  for (size_t i = 0; i < resp.items.size(); ++i) {
    const WireItemView& wi = resp.items[i];
    Item& item =
        copied[i] != nullptr ? *copied[i] : store_.GetOrCreate(wi.name);
    copied[i] = nullptr;
    ++stats_.item_ivv_comparisons;
    switch (VersionVector::Compare(*wi.ivv, item.ivv)) {
      case VvOrder::kDominates:
        // DBVV maintenance rule 3 (§4.1), then adopt value and IVV.
        dbvv_.AddDelta(*wi.ivv, item.ivv);
        item.value = wi.value;
        item.deleted = wi.deleted;
        item.ivv = *wi.ivv;
        copied[i] = &item;
        ++stats_.items_adopted;
        break;
      case VvOrder::kConcurrent:
        ReportConflict(item, *wi.ivv, ConflictSource::kPropagation);
        break;
      case VvOrder::kEqual:
        // Cannot arise under the protocol's ordering guarantees (§7);
        // tolerated defensively — nothing to adopt, and the records must be
        // dropped so our logs never advertise updates twice.
        ++stats_.redundant_items_received;
        break;
      case VvOrder::kDominatedBy:
        // Impossible in conflict-free executions (§7); after a partial
        // adoption forced by a conflict it can legitimately appear, so it
        // is treated like the redundant case.
        EPI_LOG(kDebug) << "node " << id_ << ": received older copy of '"
                        << wi.name << "' during propagation";
        ++stats_.redundant_items_received;
        break;
    }
  }

  // Append the surviving tails to our log vector, oldest first, preserving
  // origin order (AddLogRecord keeps at most one record per item).
  // Re-shipped records at or below the horizon are already held: skipped.
  for (NodeId k = 0; k < num_nodes_; ++k) {
    for (const WireLogRecordView& rec : resp.tails[k]) {
      Item* item = copied[rec.item_index];
      if (item == nullptr || rec.seq <= horizon[k]) continue;
      logs_.ForOrigin(k).AddLogRecord(item->id, rec.seq);
      ++stats_.records_appended;
    }
  }

  // Step 3: intra-node propagation (Fig. 4) for every item just copied.
  for (Item* item : copied) {
    if (item != nullptr) IntraNodePropagation(*item);
  }
  return Status::OK();
}

size_t Replica::PumpIntraNode() {
  const uint64_t before = stats_.intra_node_ops_applied;
  for (ItemId id = 0; id < store_.size(); ++id) {
    Item& item = store_.Get(id);
    if (item.HasAux()) IntraNodePropagation(item);
  }
  return static_cast<size_t>(stats_.intra_node_ops_applied - before);
}

void Replica::IntraNodePropagation(Item& item) {
  if (!item.HasAux()) return;

  // Replay auxiliary updates whose recorded pre-IVV matches the regular
  // copy exactly: each replay is a normal local update (bookkeeping
  // included), after which the next record may match.
  AuxRecord* e = aux_log_.Earliest(item.id);
  while (e != nullptr &&
         VersionVector::Compare(item.ivv, e->vv) == VvOrder::kEqual) {
    item.value = e->op.new_value;
    item.deleted = e->op.deleted;
    item.ivv.Increment(id_);
    dbvv_.Increment(id_);
    logs_.ForOrigin(id_).AddLogRecord(item.id, dbvv_[id_]);
    ++stats_.intra_node_ops_applied;
    aux_log_.Remove(e);
    e = aux_log_.Earliest(item.id);
  }

  if (e == nullptr) {
    // No pending auxiliary updates: if the regular copy has caught up with
    // the auxiliary one, the auxiliary copy is no longer needed.
    if (VersionVector::DominatesOrEqual(item.ivv, item.aux->ivv)) {
      item.aux.reset();
      ++stats_.aux_copies_discarded;
    }
  } else if (VersionVector::Conflicts(item.ivv, e->vv)) {
    // The regular copy diverged from the lineage the auxiliary updates were
    // applied on — inconsistent replicas of x exist somewhere (Fig. 4).
    ReportConflict(item, e->vv, ConflictSource::kIntraNode);
  } else if (VersionVector::Dominates(item.ivv, e->vv)) {
    // The regular copy overtook the record's pre-image without replaying
    // it, so the pending auxiliary update was applied on a lineage the
    // regular copy did not follow and can never replay. The competing
    // user-visible line is the auxiliary IVV (= e->vv plus this node's
    // pending increments), by construction concurrent with the regular IVV
    // here — report it, or the divergence stays silent. Found by epicheck:
    // update → oob → concurrent updates at origin and on the auxiliary
    // copy → propagation of the origin's newer regular copy.
    ReportConflict(item, item.aux->ivv, ConflictSource::kIntraNode);
  }
  // Remaining case: e->vv dominates item.ivv — the regular copy must first
  // receive more updates through normal propagation; try again next round.
}

// ---------------------------------------------------------------------------
// Out-of-bound copying (§5.2).

OobRequest Replica::BuildOobRequest(std::string_view name) const {
  return OobRequest{id_, std::string(name)};
}

OobResponse Replica::HandleOobRequest(const OobRequest& req) {
  ++stats_.oob_requests_served;
  OobResponse resp;
  resp.item_name = req.item_name;
  const Item* item = store_.Find(req.item_name);
  if (item == nullptr) return resp;  // found = false
  resp.found = true;
  // Prefer the auxiliary copy — never older than the regular copy (§5.2).
  resp.value = item->UserValue();
  resp.deleted = item->UserDeleted();
  resp.ivv = item->UserIvv();
  return resp;
}

// NOLINT-PROTOCOL(unlogged-store-write): the OOB path adopts into the
// *auxiliary* copy only — §5.2 requires the DBVV, log vector and regular
// copy untouched so ordering guarantees survive; a later scheduled
// propagation re-ships the item (footnote 2, §5.1).
Status Replica::AcceptOobResponse(const OobResponse& resp) {
  if (!resp.found) {
    return Status::NotFound("out-of-bound source has no item '" +
                            resp.item_name + "'");
  }
  if (resp.ivv.size() != num_nodes_) {
    return Status::InvalidArgument("received IVV of wrong width for item '" +
                                   resp.item_name + "'");
  }
  if (journal_ != nullptr) EPI_RETURN_NOT_OK(journal_->AppendOob(resp));
  Item& item = store_.GetOrCreate(resp.item_name);
  // Compare against the user-visible copy: the auxiliary IVV when an
  // auxiliary copy exists, the regular IVV otherwise.
  switch (VersionVector::Compare(resp.ivv, item.UserIvv())) {
    case VvOrder::kDominates:
      if (!item.HasAux()) {
        item.aux = std::make_unique<AuxCopy>();
        ++stats_.aux_copies_created;
      }
      // Note: existing auxiliary-log records are intentionally preserved
      // (§5.2) — they replay onto the regular copy later.
      item.aux->value = resp.value;
      item.aux->deleted = resp.deleted;
      item.aux->ivv = resp.ivv;
      ++stats_.oob_copies_adopted;
      return Status::OK();
    case VvOrder::kEqual:
    case VvOrder::kDominatedBy:
      ++stats_.oob_copies_ignored;
      return Status::OK();
    case VvOrder::kConcurrent:
      ReportConflict(item, resp.ivv, ConflictSource::kOutOfBound);
      return Status::Conflict("out-of-bound copy of '" + resp.item_name +
                              "' conflicts with the local copy");
  }
  return Status::Internal("unreachable");
}

// ---------------------------------------------------------------------------
// Durability.

Status Replica::Checkpoint() {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition("replica runs in memory");
  }
  return journal_->Checkpoint(*this);
}

// ---------------------------------------------------------------------------
// Stability tracking.

VersionVector Replica::StabilityFrontier() const {
  VersionVector frontier = dbvv_;
  for (NodeId j = 0; j < num_nodes_; ++j) {
    if (j == id_) continue;
    for (NodeId k = 0; k < num_nodes_; ++k) {
      if (peer_dbvv_[j][k] < frontier[k]) frontier[k] = peer_dbvv_[j][k];
    }
  }
  return frontier;
}

bool Replica::IsStable(const Item& item) const {
  VersionVector frontier = StabilityFrontier();
  for (NodeId k = 0; k < num_nodes_; ++k) {
    if (item.ivv[k] > frontier[k]) return false;
  }
  return true;
}

Replica::StabilityInfo Replica::CountStable() const {
  // One frontier computation for the whole pass.
  VersionVector frontier = StabilityFrontier();
  StabilityInfo info;
  for (const Item& item : store_) {
    bool stable = true;
    for (NodeId k = 0; k < num_nodes_ && stable; ++k) {
      stable = item.ivv[k] <= frontier[k];
    }
    if (!stable) continue;
    ++info.stable_items;
    if (item.deleted) ++info.stable_tombstones;
  }
  return info;
}

// ---------------------------------------------------------------------------

void Replica::ReportConflict(const Item& item, const VersionVector& remote,
                             ConflictSource source) {
  ++stats_.conflicts_detected;
  if (listener_ != nullptr) {
    ConflictEvent event;
    event.item_name = item.name;
    event.local_node = id_;
    event.local_vv = source == ConflictSource::kOutOfBound ? item.UserIvv()
                                                           : item.ivv;
    event.remote_vv = remote;
    event.source = source;
    listener_->OnConflict(event);
  }
}

Status Replica::CheckInvariants() const {
  // DBVV invariant: V_i[k] == Σ_x ivv_i(x)[k] over regular copies (§4.1).
  // Every item must also resolve through the name index to itself.
  VersionVector sum(num_nodes_);
  for (const Item& item : store_) {
    if (item.ivv.size() != num_nodes_) {
      return Status::Internal("item '" + item.name + "' has IVV of width " +
                              std::to_string(item.ivv.size()));
    }
    for (NodeId k = 0; k < num_nodes_; ++k) sum[k] += item.ivv[k];
    if (store_.Find(item.name) != &item) {
      return Status::Internal("item '" + item.name +
                              "' does not resolve to itself by name");
    }
    if (item.is_selected) {
      return Status::Internal("item '" + item.name +
                              "' has IsSelected left set");
    }
  }
  if (!(sum == dbvv_)) {
    return Status::Internal("DBVV invariant violated: sum of IVVs is " +
                            sum.ToString() + " but DBVV is " +
                            dbvv_.ToString());
  }

  // Log invariants per component: strictly increasing seq (origin order),
  // every record's item exists, the links agree in both directions, and
  // the list holds exactly the items whose P(x) slot has a record — which
  // with one slot per item means ≤ 1 record per item.
  for (NodeId k = 0; k < num_nodes_; ++k) {
    const OriginLog& log = logs_.ForOrigin(k);
    const std::string where = "log L[" + std::to_string(k) + "]";
    UpdateCount prev_seq = 0;
    ItemId prev = kNoItem;
    size_t walked = 0;
    for (ItemId x = log.head(); x != kNoItem; x = log.next(x)) {
      if (x >= store_.size()) {
        return Status::Internal(where + " holds a record for unknown item " +
                                std::to_string(x));
      }
      if (++walked > log.size()) {
        return Status::Internal(where + " holds more records than its size");
      }
      if (log.seq(x) <= prev_seq) {
        return Status::Internal(where + " not in origin order");
      }
      if (log.prev(x) != prev) {
        return Status::Internal(where + " links of item '" +
                                store_.Get(x).name + "' disagree");
      }
      prev_seq = log.seq(x);
      prev = x;
    }
    if (walked != log.size() || log.tail() != prev) {
      return Status::Internal(where + " size or tail mismatch");
    }
    size_t with_record = 0;
    for (ItemId x = 0; x < store_.size(); ++x) {
      if (log.seq(x) != 0) ++with_record;
    }
    if (with_record != walked) {
      return Status::Internal(where + " has " + std::to_string(with_record) +
                              " P(x) slots with a record but " +
                              std::to_string(walked) + " records linked");
    }
  }

  // Auxiliary invariant: records in AUX_i only for items that still have an
  // auxiliary copy, and the whole log preserves append order (the m counter
  // is the node's auxiliary update sequence).
  uint64_t prev_m = 0;
  for (const AuxRecord* r = aux_log_.head(); r != nullptr; r = r->next) {
    const Item& item = store_.Get(r->item);
    if (!item.HasAux()) {
      return Status::Internal("aux log record for item '" + item.name +
                              "' which has no auxiliary copy");
    }
    if (r->m <= prev_m) {
      return Status::Internal("AUX log not in append order at item '" +
                              item.name + "'");
    }
    prev_m = r->m;
  }

  // §5.2 auxiliary-structure invariants, per out-of-bound item.
  for (const Item& item : store_) {
    if (!item.HasAux()) continue;
    const VersionVector& aux_ivv = item.aux->ivv;
    if (aux_ivv.size() != num_nodes_) {
      return Status::Internal("item '" + item.name +
                              "' has aux IVV of width " +
                              std::to_string(aux_ivv.size()));
    }
    // The auxiliary copy is never older than the regular copy it shadows:
    // strictly newer in conflict-free executions, and possibly incomparable
    // once a concurrent branch has been adopted into the regular copy. The
    // regular copy dominating (or equalling) the auxiliary one is
    // impossible — intra-node propagation retires the auxiliary copy the
    // moment the regular copy catches up.
    switch (VersionVector::Compare(aux_ivv, item.ivv)) {
      case VvOrder::kDominates:
      case VvOrder::kConcurrent:
        break;
      case VvOrder::kEqual:
      case VvOrder::kDominatedBy:
        return Status::Internal(
            "auxiliary IVV " + aux_ivv.ToString() + " of item '" +
            item.name + "' does not exceed the regular IVV " +
            item.ivv.ToString() + " — the auxiliary copy should have "
            "retired");
    }
    // Redo records for this item replay in origin order: strictly growing
    // pre-update IVVs (mirrors the regular-log seq check), all strictly
    // below the current auxiliary IVV they led up to.
    const AuxRecord* prev = nullptr;
    for (const AuxRecord* r = aux_log_.Earliest(item.id); r != nullptr;
         r = r->item_next) {
      if (r->vv.size() != num_nodes_) {
        return Status::Internal("aux record for item '" + item.name +
                                "' has IVV of width " +
                                std::to_string(r->vv.size()));
      }
      if (prev != nullptr && !VersionVector::Dominates(r->vv, prev->vv)) {
        return Status::Internal("aux log for item '" + item.name +
                                "' not in origin order");
      }
      if (!VersionVector::Dominates(aux_ivv, r->vv)) {
        return Status::Internal(
            "aux record pre-IVV " + r->vv.ToString() + " for item '" +
            item.name + "' is not reflected in the aux IVV " +
            aux_ivv.ToString());
      }
      prev = r;
    }
  }
  return Status::OK();
}

std::string Replica::CanonicalState() const {
  ByteWriter w;
  EncodeVersionVector(&w, dbvv_);

  // Items sorted by name, so two replicas that created the same items in
  // different orders (and therefore assigned different ItemIds) still
  // canonicalize identically. Zero-IVV items without an auxiliary copy are
  // skipped: such a "fresh replica that has seen no updates" (§3) carries
  // no value, no tombstone and no log records, so a replica that merely
  // instantiated the control state (e.g. via a conflicting exchange) is
  // indistinguishable from one that never heard the name.
  std::vector<const Item*> sorted;
  sorted.reserve(store_.size());
  for (const Item& item : store_) {
    if (item.ivv.Total() == 0 && !item.HasAux()) continue;
    sorted.push_back(&item);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Item* a, const Item* b) { return a->name < b->name; });
  w.PutVarint64(sorted.size());
  for (const Item* item : sorted) {
    w.PutString(item->name);
    w.PutString(item->value);
    w.PutU8(item->deleted ? 1 : 0);
    EncodeVersionVector(&w, item->ivv);
    w.PutU8(item->HasAux() ? 1 : 0);
    if (item->HasAux()) {
      w.PutString(item->aux->value);
      w.PutU8(item->aux->deleted ? 1 : 0);
      EncodeVersionVector(&w, item->aux->ivv);
    }
  }

  // Per-origin logs by item name (ids are node-local), in list order —
  // which the log invariant pins to origin order.
  for (NodeId k = 0; k < num_nodes_; ++k) {
    const OriginLog& log = logs_.ForOrigin(k);
    w.PutVarint64(log.size());
    for (ItemId x = log.head(); x != kNoItem; x = log.next(x)) {
      w.PutString(store_.Get(x).name);
      w.PutVarint64(log.seq(x));
    }
  }

  // Auxiliary log in append order.
  w.PutVarint64(aux_log_.size());
  for (const AuxRecord* rec = aux_log_.head(); rec != nullptr;
       rec = rec->next) {
    w.PutString(store_.Get(rec->item).name);
    EncodeVersionVector(&w, rec->vv);
    w.PutString(rec->op.new_value);
    w.PutU8(rec->op.deleted ? 1 : 0);
  }
  return w.Release();
}

Result<size_t> PropagateOnce(Replica& source, Replica& recipient) {
  PropagationRequest req = recipient.BuildPropagationRequest();
  // The view borrows the source's store; it stays valid through the accept
  // because nothing mutates the source until this call returns (both
  // replicas are confined to this thread).
  const PropagationResponseView& resp = source.HandlePropagationView(req);
  uint64_t adopted_before = recipient.stats().items_adopted;
  Status s = recipient.AcceptPropagation(resp);
  if (!s.ok()) return s;
  return static_cast<size_t>(recipient.stats().items_adopted -
                             adopted_before);
}

}  // namespace epidemic

#ifndef EPIDEMIC_VV_VERSION_VECTOR_H_
#define EPIDEMIC_VV_VERSION_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace epidemic {

/// Identifies a server. The paper assumes a fixed replica set (§2), so ids
/// are dense indices 0..n-1 and version vectors can be dense arrays.
using NodeId = uint32_t;

/// Count of updates originated by one node.
using UpdateCount = uint64_t;

/// Relationship between two version vectors (paper §3, corollaries 1-4).
enum class VvOrder {
  kEqual,        // component-wise identical -> replicas identical
  kDominates,    // lhs >= rhs everywhere, > somewhere -> lhs newer
  kDominatedBy,  // rhs dominates lhs -> lhs older
  kConcurrent,   // each has a component exceeding the other -> inconsistent
};

/// Version vector as introduced in Locus [12] and used throughout the paper.
///
/// `v[j]` counts the updates originated by server `j` that are reflected in
/// the associated replica. The same type serves as
///   * IVV  — item version vector, attached to each data-item copy (§3), and
///   * DBVV — database version vector, attached to each whole-database
///     replica (§4.1); there `V_i[j]` is the total number of updates
///     performed on server j across *all* items reflected at i.
class VersionVector {
 public:
  VersionVector() = default;

  /// Zero vector for a system of `n` nodes (maintenance rule 1, §4.1).
  explicit VersionVector(size_t n);

  /// From explicit components, mainly for tests.
  explicit VersionVector(const std::vector<UpdateCount>& counts);

  VersionVector(const VersionVector& other);
  VersionVector(VersionVector&& other) noexcept;
  VersionVector& operator=(const VersionVector& other);
  VersionVector& operator=(VersionVector&& other) noexcept;
  ~VersionVector() { FreeHeap(); }

  size_t size() const { return size_; }

  UpdateCount operator[](NodeId j) const { return data()[j]; }
  UpdateCount& operator[](NodeId j) { return data()[j]; }

  /// Records one more local update by node `j` (rule 2, §4.1).
  void Increment(NodeId j) { ++data()[j]; }

  /// Component-wise maximum with `other` — the merge applied when missing
  /// updates are obtained from another replica (§3).
  /// Requires same size.
  void MergeMax(const VersionVector& other);

  /// Component-wise `this += (other - base)`.
  ///
  /// Implements DBVV maintenance rule 3 (§4.1): when node i adopts item copy
  /// x_j, its DBVV grows by the per-component surplus of x_j's IVV over the
  /// local IVV. Caller guarantees other >= base component-wise (the protocol
  /// only copies from strictly newer replicas).
  void AddDelta(const VersionVector& newer, const VersionVector& base);

  /// Three-way comparison per §3. O(n).
  static VvOrder Compare(const VersionVector& a, const VersionVector& b);

  /// a dominates-or-equals b (the SendPropagation early-exit test, Fig. 2).
  static bool DominatesOrEqual(const VersionVector& a, const VersionVector& b);

  /// Strict dominance: a newer than b (corollary 3, §3).
  static bool Dominates(const VersionVector& a, const VersionVector& b);

  /// True iff the vectors are inconsistent (corollary 4, §3).
  static bool Conflicts(const VersionVector& a, const VersionVector& b);

  /// Sum of all components — total updates reflected. Used by invariants
  /// and metrics.
  UpdateCount Total() const;

  bool operator==(const VersionVector& other) const;

  /// "[3,0,7]" — for logs and test failure messages.
  std::string ToString() const;

 private:
  /// Vectors of up to kInline components live inside the object, so an
  /// item's IVV costs no heap block of its own in clusters of up to four
  /// nodes; wider vectors own a heap array.
  static constexpr size_t kInline = 4;

  bool IsInline() const { return size_ <= kInline; }
  UpdateCount* data() { return IsInline() ? inline_ : heap_; }
  const UpdateCount* data() const { return IsInline() ? inline_ : heap_; }

  /// Gives this vector `n` components, contents unspecified.
  void Resize(size_t n);
  void FreeHeap() {
    if (!IsInline()) delete[] heap_;
  }

  size_t size_ = 0;
  union {
    UpdateCount inline_[kInline] = {};
    UpdateCount* heap_;
  };
};

}  // namespace epidemic

#endif  // EPIDEMIC_VV_VERSION_VECTOR_H_

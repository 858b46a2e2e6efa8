#include "vv/version_vector.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace epidemic {

VersionVector::VersionVector(size_t n) {
  Resize(n);
  std::fill_n(data(), n, UpdateCount{0});
}

VersionVector::VersionVector(const std::vector<UpdateCount>& counts) {
  Resize(counts.size());
  std::copy(counts.begin(), counts.end(), data());
}

VersionVector::VersionVector(const VersionVector& other) {
  Resize(other.size_);
  std::copy_n(other.data(), size_, data());
}

VersionVector::VersionVector(VersionVector&& other) noexcept
    : size_(other.size_) {
  if (IsInline()) {
    std::copy_n(other.inline_, size_, inline_);
  } else {
    heap_ = other.heap_;
  }
  other.size_ = 0;
}

VersionVector& VersionVector::operator=(const VersionVector& other) {
  if (this != &other) {
    Resize(other.size_);
    std::copy_n(other.data(), size_, data());
  }
  return *this;
}

VersionVector& VersionVector::operator=(VersionVector&& other) noexcept {
  if (this != &other) {
    FreeHeap();
    size_ = other.size_;
    if (IsInline()) {
      std::copy_n(other.inline_, size_, inline_);
    } else {
      heap_ = other.heap_;
    }
    other.size_ = 0;
  }
  return *this;
}

void VersionVector::Resize(size_t n) {
  if (n == size_) return;
  FreeHeap();
  size_ = n;
  if (!IsInline()) heap_ = new UpdateCount[n];
}

bool VersionVector::operator==(const VersionVector& other) const {
  return size_ == other.size_ && std::equal(data(), data() + size_,
                                            other.data());
}

void VersionVector::MergeMax(const VersionVector& other) {
  EPI_CHECK(size_ == other.size_)
      << "version vector size mismatch: " << size_ << " vs " << other.size_;
  UpdateCount* mine = data();
  const UpdateCount* theirs = other.data();
  for (size_t k = 0; k < size_; ++k) {
    if (theirs[k] > mine[k]) mine[k] = theirs[k];
  }
}

void VersionVector::AddDelta(const VersionVector& newer,
                             const VersionVector& base) {
  EPI_CHECK(size_ == newer.size_ && size_ == base.size_)
      << "version vector size mismatch in AddDelta";
  UpdateCount* mine = data();
  const UpdateCount* hi = newer.data();
  const UpdateCount* lo = base.data();
  for (size_t k = 0; k < size_; ++k) {
    EPI_CHECK(hi[k] >= lo[k])
        << "AddDelta requires newer >= base; component " << k << " has "
        << hi[k] << " < " << lo[k];
    mine[k] += hi[k] - lo[k];
  }
}

VvOrder VersionVector::Compare(const VersionVector& a,
                               const VersionVector& b) {
  EPI_CHECK(a.size() == b.size())
      << "comparing version vectors of different sizes";
  const UpdateCount* pa = a.data();
  const UpdateCount* pb = b.data();
  bool a_greater = false;
  bool b_greater = false;
  for (size_t k = 0; k < a.size_; ++k) {
    if (pa[k] > pb[k]) a_greater = true;
    if (pb[k] > pa[k]) b_greater = true;
  }
  if (a_greater && b_greater) return VvOrder::kConcurrent;
  if (a_greater) return VvOrder::kDominates;
  if (b_greater) return VvOrder::kDominatedBy;
  return VvOrder::kEqual;
}

bool VersionVector::DominatesOrEqual(const VersionVector& a,
                                     const VersionVector& b) {
  VvOrder order = Compare(a, b);
  return order == VvOrder::kDominates || order == VvOrder::kEqual;
}

bool VersionVector::Dominates(const VersionVector& a,
                              const VersionVector& b) {
  return Compare(a, b) == VvOrder::kDominates;
}

bool VersionVector::Conflicts(const VersionVector& a,
                              const VersionVector& b) {
  return Compare(a, b) == VvOrder::kConcurrent;
}

UpdateCount VersionVector::Total() const {
  const UpdateCount* counts = data();
  return std::accumulate(counts, counts + size_, UpdateCount{0});
}

std::string VersionVector::ToString() const {
  std::string out = "[";
  for (size_t k = 0; k < size_; ++k) {
    if (k > 0) out += ",";
    out += std::to_string(data()[k]);
  }
  out += "]";
  return out;
}

}  // namespace epidemic

#pragma once

/// \file array.hpp
/// `Array<T, Rank>` — the DPF parallel array.
///
/// Models an HPF/CM-Fortran array object: a dense row-major block of
/// elements together with a Layout classifying each axis as serial (local)
/// or parallel (distributed). Construction/destruction updates the
/// memory-usage metric unless the array is marked MemKind::Temporary (the
/// stand-in for a compiler temporary, which the paper's accounting excludes).
/// Temporary arrays of trivially-copyable element types draw their backing
/// store from dpf::TemporaryPool.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/layout.hpp"
#include "core/memory.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"

namespace dpf {

namespace detail {

/// Zero-initialized element buffer. Pool-backed when the element type is
/// trivially copyable, the buffer belongs to a Temporary array, and pooling
/// is enabled; plain value-initialized heap storage otherwise.
template <typename T>
class ElemBuffer {
  static constexpr bool kPoolable =
      std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>;

 public:
  ElemBuffer() = default;

  ElemBuffer(std::size_t n, MemKind kind) { allocate(n, kind); }

  ElemBuffer(const ElemBuffer& other) {
    allocate(other.n_, other.cap_ > 0 ? MemKind::Temporary : MemKind::User);
    if constexpr (kPoolable) {
      if (n_ > 0) std::memcpy(p_, other.p_, n_ * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n_; ++i) p_[i] = other.p_[i];
    }
  }

  ElemBuffer(ElemBuffer&& other) noexcept
      : p_(other.p_), n_(other.n_), cap_(other.cap_) {
    other.p_ = nullptr;
    other.n_ = 0;
    other.cap_ = 0;
  }

  ElemBuffer& operator=(const ElemBuffer& other) {
    if (this != &other) {
      ElemBuffer tmp(other);
      swap(tmp);
    }
    return *this;
  }

  ElemBuffer& operator=(ElemBuffer&& other) noexcept {
    if (this != &other) {
      deallocate();
      p_ = other.p_;
      n_ = other.n_;
      cap_ = other.cap_;
      other.p_ = nullptr;
      other.n_ = 0;
      other.cap_ = 0;
    }
    return *this;
  }

  ~ElemBuffer() { deallocate(); }

  void swap(ElemBuffer& other) noexcept {
    std::swap(p_, other.p_);
    std::swap(n_, other.n_);
    std::swap(cap_, other.cap_);
  }

  /// Releases the storage; the buffer becomes empty.
  void reset() { deallocate(); }

  [[nodiscard]] T* data() { return p_; }
  [[nodiscard]] const T* data() const { return p_; }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  void allocate(std::size_t n, MemKind kind) {
    n_ = n;
    if (n == 0) {
      p_ = nullptr;
      return;
    }
    if constexpr (kPoolable) {
      if (kind == MemKind::Temporary) {
        p_ = static_cast<T*>(
            TemporaryPool::instance().acquire(n * sizeof(T), cap_));
      } else {
        p_ = static_cast<T*>(::operator new(n * sizeof(T)));
      }
      std::memset(static_cast<void*>(p_), 0, n * sizeof(T));
    } else {
      p_ = new T[n]();
    }
  }

  void deallocate() {
    if constexpr (kPoolable) {
      if (cap_ > 0) {
        TemporaryPool::instance().release(p_, cap_);
      } else {
        ::operator delete(p_);
      }
    } else {
      delete[] p_;
    }
    p_ = nullptr;
    n_ = 0;
    cap_ = 0;
  }

  T* p_ = nullptr;
  std::size_t n_ = 0;
  std::size_t cap_ = 0;  ///< pool block capacity in bytes; 0 → not pooled
};

}  // namespace detail

template <typename T, std::size_t Rank>
class Array {
 public:
  using value_type = T;
  static constexpr std::size_t rank = Rank;

  Array() : Array(Shape<Rank>{}, Layout<Rank>{}, MemKind::User) {}

  /// Constructs a zero-initialized array with the given shape and layout.
  Array(Shape<Rank> shape, Layout<Rank> layout, MemKind kind = MemKind::User)
      : shape_(shape),
        layout_(layout),
        kind_(kind),
        data_(static_cast<std::size_t>(shape.size()), kind) {
    if (kind_ == MemKind::User) memory::on_alloc(bytes());
  }

  /// Convenience: all-parallel layout.
  explicit Array(Shape<Rank> shape, MemKind kind = MemKind::User)
      : Array(shape, Layout<Rank>{}, kind) {}

  Array(const Array& other)
      : shape_(other.shape_),
        layout_(other.layout_),
        kind_(other.kind_),
        data_(other.data_) {
    if (kind_ == MemKind::User) memory::on_alloc(bytes());
  }

  Array(Array&& other) noexcept
      : shape_(other.shape_),
        layout_(other.layout_),
        kind_(other.kind_),
        data_(std::move(other.data_)) {
    other.kind_ = MemKind::Temporary;  // moved-from array owns no tracked bytes
  }

  Array& operator=(const Array& other) {
    if (this == &other) return *this;
    Array tmp(other);
    swap(tmp);
    return *this;
  }

  Array& operator=(Array&& other) noexcept {
    if (this == &other) return *this;
    release_tracking();
    shape_ = other.shape_;
    layout_ = other.layout_;
    kind_ = other.kind_;
    data_ = std::move(other.data_);
    other.kind_ = MemKind::Temporary;
    return *this;
  }

  ~Array() { release_tracking(); }

  void swap(Array& other) noexcept {
    std::swap(shape_, other.shape_);
    std::swap(layout_, other.layout_);
    std::swap(kind_, other.kind_);
    data_.swap(other.data_);
  }

  [[nodiscard]] const Shape<Rank>& shape() const { return shape_; }
  [[nodiscard]] const Layout<Rank>& layout() const { return layout_; }
  [[nodiscard]] MemKind mem_kind() const { return kind_; }
  [[nodiscard]] index_t size() const { return shape_.size(); }
  [[nodiscard]] index_t extent(std::size_t axis) const {
    return shape_.extent(axis);
  }

  /// Bytes under the paper's accounting (DataType size × element count).
  [[nodiscard]] index_t bytes() const {
    return size_of(data_type_of_v<T>) * size();
  }

  [[nodiscard]] std::span<T> data() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> data() const {
    return {data_.data(), data_.size()};
  }

  [[nodiscard]] T& operator[](index_t linear) {
    assert(linear >= 0 && linear < size());
    return data_.data()[static_cast<std::size_t>(linear)];
  }
  [[nodiscard]] const T& operator[](index_t linear) const {
    assert(linear >= 0 && linear < size());
    return data_.data()[static_cast<std::size_t>(linear)];
  }

  template <typename... I>
    requires(sizeof...(I) == Rank)
  [[nodiscard]] T& operator()(I... idx) {
    return data_.data()[static_cast<std::size_t>(shape_.offset(idx...))];
  }

  template <typename... I>
    requires(sizeof...(I) == Rank)
  [[nodiscard]] const T& operator()(I... idx) const {
    return data_.data()[static_cast<std::size_t>(shape_.offset(idx...))];
  }

  void fill(T v) { std::fill(data_.data(), data_.data() + data_.size(), v); }

  /// The extent of the block-distributed axis (outermost parallel axis),
  /// or 1 if the array has no parallel axis (fully replicated/serial).
  [[nodiscard]] index_t distributed_extent() const {
    const std::size_t a = layout_.distributed_axis();
    return a == Rank ? 1 : shape_.extent(a);
  }

  /// Product of extents of axes inner to the distributed axis — the number
  /// of contiguous elements owned per distributed-axis slot.
  [[nodiscard]] index_t slot_volume() const {
    const std::size_t a = layout_.distributed_axis();
    if (a == Rank) return size();
    index_t v = 1;
    for (std::size_t ax = a + 1; ax < Rank; ++ax) v *= shape_.extent(ax);
    return v;
  }

 private:
  void release_tracking() {
    if (kind_ == MemKind::User) memory::on_free(bytes());
    kind_ = MemKind::Temporary;
  }

  Shape<Rank> shape_;
  Layout<Rank> layout_;
  MemKind kind_;
  detail::ElemBuffer<T> data_;
};

/// Convenience aliases for the common ranks.
template <typename T> using Array1 = Array<T, 1>;
template <typename T> using Array2 = Array<T, 2>;
template <typename T> using Array3 = Array<T, 3>;
template <typename T> using Array4 = Array<T, 4>;

/// Builds a rank-1 parallel array of extent n.
template <typename T>
[[nodiscard]] Array1<T> make_vector(index_t n, MemKind kind = MemKind::User) {
  return Array1<T>(Shape<1>(n), Layout<1>(AxisKind::Parallel), kind);
}

/// Builds a rank-2 all-parallel array.
template <typename T>
[[nodiscard]] Array2<T> make_matrix(index_t rows, index_t cols,
                                    MemKind kind = MemKind::User) {
  return Array2<T>(Shape<2>(rows, cols),
                   Layout<2>(AxisKind::Parallel, AxisKind::Parallel), kind);
}

}  // namespace dpf

// hjembed: a small-buffer vector for hot-path coordinate and path data.
//
// Mesh coordinates (k <= 8 in practice) and cube paths (dilation <= 3 in
// practice) are tiny; storing them inline avoids a heap allocation per edge
// during verification sweeps over millions of edges.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <type_traits>

namespace hj {

/// Vector with inline storage for up to N elements, spilling to the heap
/// beyond that. Restricted to trivially copyable T (all uses are integer
/// coordinate/path data), which keeps the implementation simple and the
/// copy/grow paths memcpy-able.
template <class T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept = default;

  SmallVec(std::size_t count, const T& value) { assign(count, value); }

  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  // Constrained so SmallVec(2, 0) picks the (count, value) constructor,
  // as with std::vector.
  template <class It>
    requires(!std::is_integral_v<It>)
  SmallVec(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }

  SmallVec(const SmallVec& other) { copy_from(other); }

  SmallVec(SmallVec&& other) noexcept { move_from(std::move(other)); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear_storage();
      copy_from(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear_storage();
      move_from(std::move(other));
    }
    return *this;
  }

  ~SmallVec() { clear_storage(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }

  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }

  T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }

  T& front() noexcept { return (*this)[0]; }
  const T& front() const noexcept { return (*this)[0]; }
  T& back() noexcept { return (*this)[size_ - 1]; }
  const T& back() const noexcept { return (*this)[size_ - 1]; }

  void push_back(const T& v) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = v;
  }

  void pop_back() noexcept {
    assert(size_ > 0);
    --size_;
  }

  void clear() noexcept { size_ = 0; }

  void resize(std::size_t n, const T& fill = T{}) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = fill;
    size_ = n;
  }

  void assign(std::size_t count, const T& value) {
    clear();
    resize(count, value);
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  void reverse() noexcept { std::reverse(begin(), end()); }

  friend bool operator==(const SmallVec& a, const SmallVec& b) noexcept {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  /// Move to a heap buffer of at least `min_cap` (> size_) elements,
  /// doubling the capacity at least. Sizing from the request rather than
  /// from capacity_ alone keeps the buffer provably larger than the
  /// elements copied into it.
  void grow(std::size_t min_cap) {
    const std::size_t new_cap = std::max(min_cap, capacity_ * 2);
    T* fresh = new T[new_cap];
    std::copy(data_, data_ + size_, fresh);
    if (on_heap()) delete[] data_;
    data_ = fresh;
    capacity_ = new_cap;
  }

  [[nodiscard]] bool on_heap() const noexcept { return data_ != inline_; }

  void clear_storage() noexcept {
    if (on_heap()) delete[] data_;
    data_ = inline_;
    capacity_ = N;
    size_ = 0;
  }

  void copy_from(const SmallVec& other) {
    reserve(other.size_);
    std::copy(other.data_, other.data_ + other.size_, data_);
    size_ = other.size_;
  }

  void move_from(SmallVec&& other) noexcept {
    if (other.on_heap()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      std::copy(other.data_, other.data_ + other.size_, inline_);
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  T inline_[N];
  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace hj

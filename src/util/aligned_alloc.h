// A minimal over-aligned std::allocator for the bit-matrix word buffers.
//
// The SIMD kernels (util/simd_kernels.h) use unaligned loads, so alignment
// is a performance contract, not a correctness one: 64-byte-aligned rows
// keep the AVX2/AVX-512 paths off split cache lines. BitMatrix allocates its
// word storage through this allocator so every backing buffer starts on a
// cache-line boundary. (The jump index's word pool gets the same alignment
// from its CowStore, see enumeration/index.h.)
#ifndef TREENUM_UTIL_ALIGNED_ALLOC_H_
#define TREENUM_UTIL_ALIGNED_ALLOC_H_

#include <cstddef>
#include <new>
#include <vector>

namespace treenum {

template <typename T, std::size_t Align>
struct AlignedAllocator {
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");
  static_assert(Align >= alignof(T), "alignment must not weaken the type's");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    // Routed through the aligned operator new so the alloc-gauge hooks
    // (util/alloc_gauge_hooks.cpp) and the sanitizers keep seeing every
    // allocation.
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// Cache-line-aligned uint64 buffer: BitMatrix's storage type.
using AlignedWordVector =
    std::vector<uint64_t, AlignedAllocator<uint64_t, 64>>;

}  // namespace treenum

#endif  // TREENUM_UTIL_ALIGNED_ALLOC_H_

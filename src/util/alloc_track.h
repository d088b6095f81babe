// Tracked-allocation hook for the hot-path container allocation sites.
//
// The profiler (src/obs/profiler.h) wants to attribute allocation count,
// bytes and peak live bytes to the innermost profile scope — but the
// containers that matter (tensor::Tensor, image::Image/ImageU8, the codec
// Bytes buffers) live in layers that must NOT depend on obs. This header
// is the dependency-free seam: an atomically-installed hook table the
// profiler registers at arm time, and a stateless std::allocator shim
// that reports every allocate/deallocate through it.
//
// Until the profiler installs its hooks, each tracked allocation costs
// one atomic load and a null check.
//
// Determinism: the hooks observe allocation events, never alter them.
// Whether a sink is installed (and whether the profiler is enabled) has
// zero effect on what the containers allocate, so results stay
// bit-identical with profiling armed or not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace edgestab {

/// Which subsystem owns the allocation site. Used for the per-site
/// breakdown in the profile report; scope attribution is orthogonal.
enum class AllocSite : std::uint8_t {
  kTensor = 0,  ///< tensor::Tensor storage (NN activations, weights)
  kImage = 1,   ///< image::Image / ImageU8 / isp::RawImage planes
  kBytes = 2,   ///< util::Bytes — codec bitstreams, files, checkpoints
};
inline constexpr int kAllocSiteCount = 3;

const char* alloc_site_name(AllocSite site);

/// Observer table. Function pointers, not std::function: the hot path
/// must be one atomic load + null check when nothing is installed.
struct AllocHooks {
  void (*on_alloc)(AllocSite site, std::size_t bytes) = nullptr;
  void (*on_free)(AllocSite site, std::size_t bytes) = nullptr;
};

/// Install (or, with nullptr, remove) the process-wide hook table. The
/// table must outlive every tracked allocation — in practice it is a
/// static owned by the profiler. Not synchronized against concurrent
/// allocations beyond the pointer's atomicity: install before the
/// parallel work starts (the profiler arms in bench::Run's constructor).
void set_alloc_hooks(const AllocHooks* hooks);
const AllocHooks* alloc_hooks();

/// std::allocator shim that reports through the installed AllocHooks.
/// Stateless and always-equal, so container copies/moves/swaps behave
/// exactly as with std::allocator.
template <typename T, AllocSite Site>
class TrackingAllocator {
 public:
  using value_type = T;

  template <typename U>
  struct rebind {
    using other = TrackingAllocator<U, Site>;
  };

  TrackingAllocator() noexcept = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U, Site>&) noexcept {}

  T* allocate(std::size_t n) {
    if (const AllocHooks* hooks = alloc_hooks();
        hooks != nullptr && hooks->on_alloc != nullptr)
      hooks->on_alloc(Site, n * sizeof(T));
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (const AllocHooks* hooks = alloc_hooks();
        hooks != nullptr && hooks->on_free != nullptr)
      hooks->on_free(Site, n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }

  friend bool operator==(const TrackingAllocator&,
                         const TrackingAllocator&) noexcept {
    return true;
  }
};

/// Vector whose heap traffic is attributed to `Site` when profiling.
template <typename T, AllocSite Site>
using TrackedVector = std::vector<T, TrackingAllocator<T, Site>>;

/// Allocator adaptor that makes value-less construct() default-initialize
/// — `vector::resize(n)` leaves trivial elements uninitialized instead of
/// zeroing them. Explicit-value construction (`vector(n, v)`, push_back,
/// copies) is untouched, so a container only ever holds indeterminate
/// bytes when its owner grew it through the no-value path on purpose.
/// This is a type-level opt-in: only containers declared with this
/// adaptor change behavior.
template <typename A>
class DefaultInitAllocator : public A {
  using Traits = std::allocator_traits<A>;

 public:
  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<typename Traits::template rebind_alloc<U>>;
  };

  using A::A;
  DefaultInitAllocator() = default;
  explicit DefaultInitAllocator(const A& a) noexcept : A(a) {}
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& other) noexcept
      : A(static_cast<const U&>(other)) {}

  template <typename U>
  void construct(U* p) noexcept(noexcept(::new (static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    Traits::construct(static_cast<A&>(*this), p,
                      std::forward<Args>(args)...);
  }
};

/// TrackedVector whose no-value resize leaves elements uninitialized.
/// For hot-path buffers whose every element is overwritten before use.
template <typename T, AllocSite Site>
using UninitTrackedVector =
    std::vector<T, DefaultInitAllocator<TrackingAllocator<T, Site>>>;

}  // namespace edgestab

/**
 * @file
 * The event engine's callback type: an inline, non-allocating
 * nullary callable.
 *
 * A Callback is a function pointer plus kCapacity bytes of in-place
 * storage holding the closure itself. Closures must be trivially
 * copyable (captures are references, raw pointers and plain values),
 * so a Callback is copied with memcpy, needs no destructor and never
 * touches the heap. That is what lets the memory protocol post one
 * request or response event per chunk without a malloc/free pair
 * (DESIGN.md §6): every closure it posts fits the capacity, which
 * the static_asserts below check at compile time.
 */
#ifndef PGCN_SIM_CALLBACK_HPP
#define PGCN_SIM_CALLBACK_HPP

#include <cstddef>
#include <new>
#include <type_traits>

namespace pgcn::sim {

class Callback
{
  public:
    /// In-place closure storage in bytes: a fixed constant, sized for
    /// the memory protocol's request closure (a MemorySystem pointer
    /// plus its 56-byte Request).
    static constexpr size_t kCapacity = 64;
    /// Strictest closure alignment the storage honours.
    static constexpr size_t kAlign = alignof(void *);

    /** An empty callback; invoking it is a bug. */
    Callback() = default;

    /** Wrap closure @p fn, copying it into the in-place storage. */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
                 std::is_invocable_r_v<void, F &>)
    Callback(F fn) noexcept
    {
        static_assert(sizeof(F) <= kCapacity,
                      "closure exceeds Callback::kCapacity bytes");
        static_assert(alignof(F) <= kAlign,
                      "closure is over-aligned for Callback storage");
        static_assert(std::is_trivially_copyable_v<F>,
                      "Callback captures must be trivially copyable: "
                      "capture by reference or raw pointer");
        ::new (static_cast<void *>(storage_)) F(fn);
        invoke_ = [](void *storage) {
            (*std::launder(static_cast<F *>(storage)))();
        };
    }

    /** Run the closure. */
    void operator()() { invoke_(storage_); }

  private:
    void (*invoke_)(void *) = nullptr;
    alignas(kAlign) unsigned char storage_[kCapacity];
};

static_assert(sizeof(Callback) == sizeof(void (*)()) + Callback::kCapacity,
              "Callback is a function pointer plus its storage");
static_assert(std::is_trivially_copyable_v<Callback>,
              "Callback must copy with memcpy");

} // namespace pgcn::sim

#endif // PGCN_SIM_CALLBACK_HPP

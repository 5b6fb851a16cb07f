#pragma once
/// @file
/// pdl::io::parallel_for -- the data path's one fork-join helper.
///
/// One process-wide pool of persistent workers, one fewer than the CPUs
/// the process may run on, started by the first call that fans out and
/// joined at exit.  A call splits [0, n) into contiguous ranges, one per
/// lane, runs the first range on the calling thread, hands each other
/// range to whichever thread claims it first -- a worker, or the caller
/// once its own range is done -- and returns once every range is done.
/// One call fans out at a time: a call that finds the workers busy (a
/// second rebuilder, or a range calling parallel_for) runs its whole
/// range on the calling thread.  Workers take none of their caller's
/// locks, so a caller may hold its own locks across a call.  The pool
/// lives in src/io because the layers below promise no threads
/// (docs/ARCHITECTURE.md, "Layer map").

#include <cstddef>
#include <memory>
#include <type_traits>

namespace pdl::io {

/// Lanes one parallel_for call can use: the CPUs this process may run on
/// (its affinity mask), at least 1.  Does not start the workers.
[[nodiscard]] std::size_t parallel_lanes() noexcept;

namespace detail {
/// parallel_for's body: `call(body, begin, end)`.
using RangeCall = void (*)(void* body, std::size_t begin, std::size_t end);
void parallel_for(std::size_t n, std::size_t lanes, RangeCall call,
                  void* body);
}  // namespace detail

/// Runs body(begin, end) over [0, n) split into min(lanes, n,
/// parallel_lanes()) contiguous ranges of near-equal size, range 0 on
/// the calling thread; the ranges may run concurrently, so they must
/// touch disjoint state.  With one lane, or when the workers are busy,
/// it calls body(0, n) on the calling thread; n == 0 calls nothing.  An
/// exception a range throws is rethrown here once every range is done.
template <class Body>
void parallel_for(std::size_t n, std::size_t lanes, Body&& body) {
  using Fn = std::remove_reference_t<Body>;
  detail::parallel_for(
      n, lanes,
      [](void* fn, std::size_t begin, std::size_t end) {
        (*static_cast<Fn*>(fn))(begin, end);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace pdl::io

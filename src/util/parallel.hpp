#pragma once
// Deterministic parallel campaign engine.
//
// Every Monte-Carlo campaign in this repo (fault coverage, yield,
// reliability, wafer maps) is embarrassingly parallel: `trials`
// independent experiments folded by an associative combiner. This header
// provides the one primitive they all share, `parallel_reduce`, built on
// a small lazily-grown thread pool with dynamic chunk scheduling.
//
// The determinism contract — the reason this engine is trustworthy:
//   * each trial draws from its own RNG sub-stream (util/rng.hpp's
//     stream_seed), so the random numbers a trial sees never depend on
//     which thread ran it or in what order;
//   * per-trial results are folded in strict index order within a chunk,
//     and chunk partials are folded in strict chunk order on the calling
//     thread, so the floating-point association is fixed by the chunk
//     size alone — never by the thread count or the scheduler.
// Hence results are bit-identical for any BISRAM_THREADS value, which
// tests/test_parallel_campaigns.cpp enforces.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "util/cancel.hpp"

namespace bisram {

/// Worker-thread count campaigns use: the BISRAM_THREADS environment
/// variable when set to a positive integer, else a programmatic override
/// (set_campaign_threads), else the hardware concurrency. Always >= 1;
/// 1 selects the plain serial path (no pool involvement at all).
int campaign_threads();

/// Programmatic override for campaign_threads() (tests, benchmarks).
/// Pass 0 to restore the environment/hardware default. Returns the
/// previous override. Note BISRAM_THREADS, when set, still wins: the
/// environment is the operator's knob of last resort.
int set_campaign_threads(int n);

namespace detail {
/// Runs body() concurrently on `threads` participants (threads - 1 pool
/// workers plus the calling thread). body must be safe to run from
/// multiple threads; exceptions thrown by pool workers are captured and
/// rethrown on the caller. Blocks until every participant returns.
void run_on_pool(int threads, const std::function<void()>& body);
}  // namespace detail

/// Folds `per_trial(i)` for i in [0, trials) with `combine`, splitting
/// the index space into fixed `chunk`-sized blocks that worker threads
/// claim dynamically from a shared counter. `combine(acc, value)` must be
/// associative; `identity` is its neutral element. The fold order is a
/// pure function of (trials, chunk) — see the header comment — so for a
/// fixed chunk size the result is bit-identical no matter how many
/// threads execute it. `threads` <= 0 means campaign_threads().
///
/// Cancellation: when `cancel` is non-null, every participant polls
/// cancel->stop_requested() before claiming each chunk and stops claiming
/// once it fires; chunks already in flight finish (latency is bounded by
/// one chunk of work). The returned fold then covers exactly the chunks
/// that completed — a valid partial result as long as the accumulator
/// carries its own sample count. `completed`, when non-null, receives the
/// number of trials actually folded (== trials on an uninterrupted run).
/// An attached-but-silent token perturbs nothing: the fold order and
/// result are bit-identical to a run with no token at all.
///
/// Resume: when `initial` is non-null the caller-side fold starts from
/// *initial instead of `identity` (chunk partials still start from
/// `identity`). Because the caller-side fold is a strict left fold over
/// chunk partials, feeding a previous run's accumulator back as `initial`
/// continues the exact association an uninterrupted run would have used —
/// the basis of the bit-identical checkpoint/resume contract
/// (tests/test_checkpoint_resume.cpp).
template <typename T, typename PerTrial, typename Combine>
T parallel_reduce(std::int64_t trials, std::int64_t chunk, T identity,
                  PerTrial&& per_trial, Combine&& combine, int threads = 0,
                  const CancelToken* cancel = nullptr,
                  std::int64_t* completed = nullptr, const T* initial = nullptr) {
  if (completed) *completed = 0;
  if (trials <= 0) return initial ? *initial : identity;
  if (chunk < 1) chunk = 1;
  const std::int64_t nchunks = (trials + chunk - 1) / chunk;
  // One chunk never reaches the pool, so it skips the thread-count
  // lookup too: the hardware query is a system call on every use, a
  // measurable cost for the many tiny inline calls (leaf extraction).
  if (threads <= 0 && nchunks > 1) threads = campaign_threads();
  if (threads == 1 || nchunks == 1) {
    // Serial path: identical association (chunked fold) as the parallel
    // path, just executed in place.
    T acc = initial ? *initial : identity;
    for (std::int64_t c = 0; c < nchunks; ++c) {
      if (cancel && cancel->stop_requested()) break;
      const std::int64_t lo = c * chunk;
      const std::int64_t hi = std::min(trials, lo + chunk);
      T part = identity;
      for (std::int64_t i = lo; i < hi; ++i) part = combine(std::move(part), per_trial(i));
      acc = combine(std::move(acc), std::move(part));
      if (completed) *completed += hi - lo;
    }
    return acc;
  }

  if (threads > nchunks) threads = static_cast<int>(nchunks);
  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  std::vector<char> finished(static_cast<std::size_t>(nchunks), 0);
  std::atomic<std::int64_t> next{0};
  detail::run_on_pool(threads, [&] {
    for (std::int64_t c;
         !(cancel && cancel->stop_requested()) &&
         (c = next.fetch_add(1, std::memory_order_relaxed)) < nchunks;) {
      const std::int64_t lo = c * chunk;
      const std::int64_t hi = std::min(trials, lo + chunk);
      T part = identity;
      for (std::int64_t i = lo; i < hi; ++i) part = combine(std::move(part), per_trial(i));
      partials[static_cast<std::size_t>(c)] = std::move(part);
      finished[static_cast<std::size_t>(c)] = 1;
    }
  });
  // The pool join publishes every worker's writes; fold only the chunks
  // that actually ran (on an uninterrupted run that is all of them, and
  // folding in chunk order keeps the association thread-independent).
  T acc = initial ? *initial : identity;
  for (std::int64_t c = 0; c < nchunks; ++c) {
    if (!finished[static_cast<std::size_t>(c)]) continue;
    acc = combine(std::move(acc), std::move(partials[static_cast<std::size_t>(c)]));
    if (completed)
      *completed += std::min(trials, (c + 1) * chunk) - c * chunk;
  }
  return acc;
}

/// Runs `per_item(i)` for i in [0, items) for side effects only (each
/// item must touch disjoint state). Same scheduling, thread-count and
/// cancellation semantics as parallel_reduce.
template <typename PerItem>
void parallel_for(std::int64_t items, std::int64_t chunk, PerItem&& per_item,
                  int threads = 0, const CancelToken* cancel = nullptr,
                  std::int64_t* completed = nullptr) {
  struct Nothing {};
  parallel_reduce<Nothing>(
      items, chunk, Nothing{},
      [&](std::int64_t i) {
        per_item(i);
        return Nothing{};
      },
      [](Nothing, Nothing) { return Nothing{}; }, threads, cancel, completed);
}

/// Runs `fill(lo, hi, part)` over [0, items) in fixed `chunk`-sized
/// ranges on the campaign pool, each range appending to its own `part`,
/// then appends the parts to `out` in range order — the serial loop's
/// result at any thread count. A fill may only write its own part.
template <typename T, typename Fill>
void parallel_append(std::int64_t items, std::int64_t chunk,
                     std::vector<T>& out, Fill&& fill) {
  if (items <= 0) return;
  if (chunk < 1) chunk = 1;
  const std::int64_t chunks = (items + chunk - 1) / chunk;
  std::vector<std::vector<T>> parts(static_cast<std::size_t>(chunks));
  parallel_for(chunks, 1, [&](std::int64_t c) {
    const std::int64_t lo = c * chunk;
    fill(lo, std::min(items, lo + chunk), parts[static_cast<std::size_t>(c)]);
  });
  std::size_t total = out.size();
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
    std::vector<T>().swap(p);
  }
}

}  // namespace bisram

// Wall-clock taps on a lane's cpu::ElementOps function slots.
//
// The pipeline reaches every host twin of the device sort and every CPU merge
// through the ElementOps it is handed, so wrapping those slots times each
// layer from outside the library without touching its code. Pipeline task
// actions run one after another on the simulation thread, so the tapped
// times add up to part of one sort_bytes call's wall time; the remainder is
// staging, allocation, the engine and the copy-back.
//
// This is the one function that knows the ElementOps slot layout: a change
// that reshapes ElementOps must keep tap_element_ops compiling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>

#include "cpu/element_ops.h"

namespace hs::bench {

/// Time, calls and elements through one tapped slot.
struct SlotTap {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> elems{0};

  void add(std::chrono::steady_clock::time_point start, std::uint64_t n) {
    const auto d = std::chrono::steady_clock::now() - start;
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                         .count()),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
    elems.fetch_add(n, std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  void reset() {
    ns.store(0, std::memory_order_relaxed);
    calls.store(0, std::memory_order_relaxed);
    elems.store(0, std::memory_order_relaxed);
  }
};

/// The three layers the taps see: every device-sort twin (LSD, hybrid MSD,
/// sample), the pipelined pair merges, and the final multiway merge.
struct OpsTaps {
  SlotTap device_sort;
  SlotTap pair_merge;
  SlotTap multiway;

  void reset() {
    device_sort.reset();
    pair_merge.reset();
    multiway.reset();
  }
};

/// Returns `base` with its sort and merge slots wrapped to record into
/// `taps`, which must outlive the returned ops. Unset portfolio slots stay
/// unset, so the virtual device's fallback to `device_sort` is unchanged.
inline cpu::ElementOps tap_element_ops(const cpu::ElementOps& base,
                                       OpsTaps& taps) {
  using Clock = std::chrono::steady_clock;
  OpsTaps* t = &taps;
  cpu::ElementOps ops = base;
  ops.device_sort = [fn = base.device_sort, t](
                        std::byte* data, std::uint64_t elems,
                        cpu::RadixSortScratch* scratch) {
    const auto start = Clock::now();
    fn(data, elems, scratch);
    t->device_sort.add(start, elems);
  };
  if (base.device_sort_hybrid) {
    ops.device_sort_hybrid = [fn = base.device_sort_hybrid, t](
                                 std::byte* data, std::uint64_t elems,
                                 cpu::RadixSortScratch* scratch) {
      const auto start = Clock::now();
      const unsigned passes = fn(data, elems, scratch);
      t->device_sort.add(start, elems);
      return passes;
    };
  }
  if (base.device_sort_sample) {
    ops.device_sort_sample = [fn = base.device_sort_sample, t](
                                 std::byte* data, std::uint64_t elems,
                                 cpu::RadixSortScratch* scratch) {
      const auto start = Clock::now();
      fn(data, elems, scratch);
      t->device_sort.add(start, elems);
    };
  }
  ops.merge_pair = [fn = base.merge_pair, t](cpu::RunView a, cpu::RunView b,
                                             std::byte* out,
                                             cpu::ThreadPool& pool,
                                             unsigned threads) {
    const auto start = Clock::now();
    fn(a, b, out, pool, threads);
    t->pair_merge.add(start, a.elems + b.elems);
  };
  ops.multiway = [fn = base.multiway, t](std::span<const cpu::RunView> runs,
                                         std::byte* out, cpu::ThreadPool& pool,
                                         unsigned threads,
                                         const cpu::MergePlan* plan) {
    const auto start = Clock::now();
    fn(runs, out, pool, threads, plan);
    std::uint64_t elems = 0;
    for (const cpu::RunView& r : runs) elems += r.elems;
    t->multiway.add(start, elems);
  };
  return ops;
}

}  // namespace hs::bench

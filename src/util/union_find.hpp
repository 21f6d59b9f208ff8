#pragma once
// Connected components of an id range joined by pairs found on the
// campaign pool — the merge step DRC's spacing exemption and
// extraction's net numbering share.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/parallel.hpp"

namespace bisram {

/// label[i] = the lowest id in i's component, for ids [0, n) joined by
/// the pairs `find(lo, hi, part)` appends to `part` (each packed
/// (a << 32) | b) for the ids [lo, hi). find runs on the campaign pool
/// over fixed `chunk`-sized ranges, 16 chunks at a time, and each batch
/// of pairs is merged before the next is found, so at most one batch's
/// pairs are alive at once. Unions link the larger root under the
/// smaller, so every parent is a lower id and one ascending pass then
/// leaves each id pointing at its component's minimum. The labels
/// depend only on the partition, never on pair or thread order.
template <typename Find>
std::vector<std::uint32_t> component_labels(std::size_t n, std::int64_t chunk,
                                            Find&& find) {
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  auto root = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const auto total = static_cast<std::int64_t>(n);
  const std::int64_t batch = 16 * std::max<std::int64_t>(chunk, 1);
  for (std::int64_t lo = 0; lo < total; lo += batch) {
    std::vector<std::uint64_t> pairs;
    parallel_append(std::min(batch, total - lo), chunk, pairs,
                    [&](std::int64_t a, std::int64_t b,
                        std::vector<std::uint64_t>& part) {
                      find(lo + a, lo + b, part);
                    });
    for (std::uint64_t e : pairs) {
      const auto a = root(static_cast<std::uint32_t>(e >> 32));
      const auto b = root(static_cast<std::uint32_t>(e));
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = parent[parent[i]];
  return parent;
}

}  // namespace bisram

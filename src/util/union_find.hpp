#pragma once
// Connected components of an id range joined by a packed edge list —
// the merge step DRC's spacing exemption and extraction's net numbering
// share.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace bisram {

/// label[i] = the lowest id in i's component, for ids [0, n) joined by
/// `edges` (each packed (a << 32) | b). Unions link the larger root
/// under the smaller, so every parent is a lower id and one ascending
/// pass then leaves each id pointing at its component's minimum. The
/// labels depend only on the partition, never on edge order.
inline std::vector<std::uint32_t> component_labels(
    std::size_t n, const std::vector<std::uint64_t>& edges) {
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::uint64_t e : edges) {
    const auto a = find(static_cast<std::uint32_t>(e >> 32));
    const auto b = find(static_cast<std::uint32_t>(e));
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = parent[parent[i]];
  return parent;
}

}  // namespace bisram

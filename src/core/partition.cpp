#include "core/partition.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace mns {

Partition::Partition(std::vector<PartId> part_of)
    : part_of_(std::move(part_of)) {
  PartId max_part = kNoPart;
  for (PartId p : part_of_) {
    if (p < kNoPart) throw std::invalid_argument("Partition: bad part id");
    max_part = std::max(max_part, p);
  }
  members_.assign(static_cast<std::size_t>(max_part) + 1, {});
  for (VertexId v = 0; v < static_cast<VertexId>(part_of_.size()); ++v)
    if (part_of_[v] != kNoPart) members_[part_of_[v]].push_back(v);
  for (const auto& m : members_)
    if (m.empty())
      throw std::invalid_argument("Partition: part ids must be dense");
}

Partition Partition::from_parts(
    VertexId n, const std::vector<std::vector<VertexId>>& parts) {
  std::vector<PartId> part_of(n, kNoPart);
  for (std::size_t p = 0; p < parts.size(); ++p)
    for (VertexId v : parts[p]) {
      if (v < 0 || v >= n)
        throw std::invalid_argument("Partition: vertex out of range");
      if (part_of[v] != kNoPart)
        throw std::invalid_argument("Partition: parts overlap");
      part_of[v] = static_cast<PartId>(p);
    }
  return Partition(std::move(part_of));
}

std::string Partition::validate(const Graph& g) const {
  if (static_cast<VertexId>(part_of_.size()) != g.num_vertices())
    return "part_of size differs from graph";
  for (PartId p = 0; p < num_parts(); ++p) {
    if (!is_connected_subset(g, members_[p])) {
      std::ostringstream os;
      os << "part " << p << " is not connected";
      return os.str();
    }
  }
  return {};
}

Partition voronoi_partition(const Graph& g, int num_seeds, Rng& rng) {
  if (num_seeds < 1) throw std::invalid_argument("voronoi_partition: seeds<1");
  const VertexId n = g.num_vertices();
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min<std::size_t>(all.size(), num_seeds));
  BfsResult r = bfs_multi(g, all);
  // Dense ids per seed.
  std::vector<PartId> seed_label(n, kNoPart);
  PartId next = 0;
  for (VertexId s : all) seed_label[s] = next++;
  std::vector<PartId> part_of(n, kNoPart);
  for (VertexId v = 0; v < n; ++v)
    if (r.source[v] != kInvalidVertex) part_of[v] = seed_label[r.source[v]];
  return Partition(std::move(part_of));
}

Partition ring_sectors(VertexId n, VertexId first, VertexId count,
                       int sectors) {
  if (sectors < 1 || count < sectors)
    throw std::invalid_argument("ring_sectors: bad sector count");
  if (first < 0 || first > n || count > n - first)
    throw std::invalid_argument("ring_sectors: range outside [0, n)");
  std::vector<PartId> part_of(n, kNoPart);
  for (VertexId i = 0; i < count; ++i)
    part_of[first + i] =
        static_cast<PartId>((static_cast<long long>(i) * sectors) / count);
  return Partition(std::move(part_of));
}

Partition grid_serpentines(int rows, int cols, int width) {
  if (width < 1 || cols < width)
    throw std::invalid_argument("grid_serpentines: bad width");
  std::vector<PartId> part_of(static_cast<std::size_t>(rows) * cols, kNoPart);
  const int bands = cols / width;
  for (int k = 0; k < bands; ++k) {
    const int c0 = k * width;
    const int c1 = c0 + width - 1;  // inclusive band end
    for (int r = 0; r < rows; ++r) {
      if (r % 2 == 0) {
        // Full row segment within the band.
        for (int c = c0; c <= c1; ++c)
          part_of[static_cast<std::size_t>(r) * cols + c] =
              static_cast<PartId>(k);
      } else {
        // Connector cell at alternating ends links consecutive segments
        // into one snake of induced diameter ~ rows * width / 2.
        int c = ((r / 2) % 2 == 0) ? c1 : c0;
        part_of[static_cast<std::size_t>(r) * cols + c] =
            static_cast<PartId>(k);
      }
    }
  }
  return Partition(std::move(part_of));
}

Partition grid_stripes(int rows, int cols, int band) {
  if (band < 1) throw std::invalid_argument("grid_stripes: band < 1");
  std::vector<PartId> part_of(static_cast<std::size_t>(rows) * cols, kNoPart);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      part_of[static_cast<std::size_t>(r) * cols + c] =
          static_cast<PartId>(r / band);
  return Partition(std::move(part_of));
}

}  // namespace mns

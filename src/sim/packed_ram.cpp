#include "sim/packed_ram.hpp"

#include <algorithm>

#include "util/simd.hpp"

namespace bisram::sim {

bool packed_supported(FaultKind kind) {
  switch (kind) {
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1:
    case FaultKind::TransitionUp:
    case FaultKind::TransitionDown:
    case FaultKind::CouplingIdem:
    case FaultKind::CouplingInv:
    case FaultKind::CouplingState:
      return true;
    case FaultKind::StuckOpen:   // reads the column's last sensed value
    case FaultKind::Retention:   // wall-clock decay
      return false;
  }
  return false;
}

bool packed_supported(const std::vector<Fault>& faults) {
  for (const Fault& f : faults)
    if (!packed_supported(f.kind)) return false;
  return true;
}

namespace {

bool is_coupling(FaultKind kind) {
  return kind == FaultKind::CouplingIdem || kind == FaultKind::CouplingInv ||
         kind == FaultKind::CouplingState;
}

}  // namespace

PackedPatternTable::PackedPatternTable(const RamGeometry& geo) : geo_(geo) {
  geo_.validate();
  pw_ = (geo_.total_rows() + 63) / 64;
  words_ = static_cast<std::size_t>(geo_.cols()) * static_cast<std::size_t>(pw_);
  // One slot per (ones, complemented) pair; ones ranges over 0..bpw.
  cache_.resize(2 * static_cast<std::size_t>(geo_.bpw + 1));
}

const std::uint64_t* PackedPatternTable::pattern(int ones,
                                                 bool complemented) const {
  require(ones >= 0 && ones <= geo_.bpw,
          "PackedPatternTable: Johnson fill count out of range");
  std::vector<std::uint64_t>& image =
      cache_[static_cast<std::size_t>(ones) * 2 + (complemented ? 1 : 0)];
  if (image.empty()) {
    image.assign(words_, 0);
    for (int col = 0; col < geo_.cols(); ++col) {
      const bool bit = (col / geo_.bpc < ones) != complemented;
      if (!bit) continue;
      const std::size_t base =
          static_cast<std::size_t>(col) * static_cast<std::size_t>(pw_);
      for (int w = 0; w < pw_; ++w) image[base + static_cast<std::size_t>(w)] =
          ~0ull;
    }
  }
  return image.data();
}

PackedRam::PackedRam(const RamGeometry& geo, const std::vector<Fault>& faults)
    : geo_([&] {
        geo.validate();
        return geo;
      }()),
      pw_((geo_.total_rows() + 63) / 64),
      planes_(static_cast<std::size_t>(geo_.cols()) *
                  static_cast<std::size_t>(pw_),
              0),
      write_mask_(planes_.size(), 0),
      patterns_(geo_),
      faults_(faults),
      tlb_(std::max(1, geo_.spare_words())) {
  const int rows = geo_.rows();
  const int total_rows = geo_.total_rows();
  const int cols = geo_.cols();

  // Index the overlays and derive the special word addresses: a regular
  // cell at (row, col) is bit col/bpc of the word row*bpc + col%bpc.
  std::vector<std::uint32_t> specials;
  auto add_cell = [&](const CellAddr& c) {
    require(c.row >= 0 && c.row < total_rows && c.col >= 0 && c.col < cols,
            "PackedRam: fault cell out of range");
    if (c.row < rows)
      specials.push_back(static_cast<std::uint32_t>(c.row) *
                             static_cast<std::uint32_t>(geo_.bpc) +
                         static_cast<std::uint32_t>(c.col % geo_.bpc));
  };
  for (std::size_t id = 0; id < faults_.size(); ++id) {
    const Fault& f = faults_[id];
    require(packed_supported(f.kind),
            "PackedRam: fault kind not expressible as a sparse overlay");
    add_cell(f.victim);
    by_victim_[cell_index(f.victim.row, f.victim.col)].push_back(id);
    if (is_coupling(f.kind)) {
      require(!(f.aggressor == f.victim),
              "PackedRam: coupling fault with aggressor == victim");
      add_cell(f.aggressor);
      by_aggressor_[cell_index(f.aggressor.row, f.aggressor.col)].push_back(
          id);
    }
  }
  std::sort(specials.begin(), specials.end());
  specials.erase(std::unique(specials.begin(), specials.end()),
                 specials.end());
  specials_ = std::move(specials);

  // Bulk masks: regular rows only, minus every cell of a special word.
  for (int col = 0; col < cols; ++col) {
    for (int w = 0; w < pw_; ++w) {
      const int lo = w * 64;
      std::uint64_t mask = ~0ull;
      if (rows - lo < 64)
        mask = rows <= lo ? 0ull : (1ull << (rows - lo)) - 1;
      write_mask_[plane_index(col, w)] = mask;
    }
  }
  for (std::uint32_t addr : specials_) {
    const int row = static_cast<int>(addr) / geo_.bpc;
    const int colgroup = static_cast<int>(addr) % geo_.bpc;
    for (int bit = 0; bit < geo_.bpw; ++bit) {
      const int col = bit * geo_.bpc + colgroup;
      write_mask_[plane_index(col, row / 64)] &=
          ~(1ull << (row % 64));
    }
  }
}

bool PackedRam::get_bit(int row, int col) const {
  return (planes_[plane_index(col, row / 64)] >> (row % 64)) & 1u;
}

void PackedRam::set_bit(int row, int col, bool v) {
  std::uint64_t& word = planes_[plane_index(col, row / 64)];
  const std::uint64_t bit = 1ull << (row % 64);
  if (v)
    word |= bit;
  else
    word &= ~bit;
}

void PackedRam::kernel_write(int ones, bool complemented) {
  // One masked stream assign over the whole plane buffer; the SIMD
  // dispatch (util/simd.hpp) is bit-identical to the historical
  // per-column scalar splat loop.
  simd::masked_assign(planes_.data(), patterns_.pattern(ones, complemented),
                      write_mask_.data(), planes_.size());
}

bool PackedRam::kernel_read_clean(int ones, bool complemented) const {
  return simd::masked_diff(planes_.data(),
                           patterns_.pattern(ones, complemented),
                           write_mask_.data(), planes_.size()) == 0;
}

void PackedRam::write_cell(int row, int col, bool v) {
  const bool old_v = get_bit(row, col);
  bool effective = v;
  auto it = by_victim_.find(cell_index(row, col));
  if (it != by_victim_.end()) {
    for (std::size_t id : it->second) {
      const Fault& f = faults_[id];
      switch (f.kind) {
        case FaultKind::StuckAt0: effective = false; break;
        case FaultKind::StuckAt1: effective = true; break;
        case FaultKind::TransitionUp:
          if (!old_v && v) effective = old_v;  // cannot rise
          break;
        case FaultKind::TransitionDown:
          if (old_v && !v) effective = old_v;  // cannot fall
          break;
        default:
          break;
      }
    }
  }
  set_bit(row, col, effective);
  const bool new_v = effective;
  if (new_v == old_v && v == old_v) return;
  auto ag = by_aggressor_.find(cell_index(row, col));
  if (ag == by_aggressor_.end()) return;
  for (std::size_t id : ag->second) {
    const Fault& f = faults_[id];
    switch (f.kind) {
      case FaultKind::CouplingIdem:
        if (old_v != new_v && new_v == f.dir_rising)
          set_bit(f.victim.row, f.victim.col, f.value);
        break;
      case FaultKind::CouplingInv:
        if (old_v != new_v && new_v == f.dir_rising)
          set_bit(f.victim.row, f.victim.col,
                  !get_bit(f.victim.row, f.victim.col));
        break;
      default:
        // CouplingState is a static condition evaluated at victim read
        // time, exactly as in FaultyArray.
        break;
    }
  }
}

bool PackedRam::read_cell(int row, int col) {
  bool value = get_bit(row, col);
  auto it = by_victim_.find(cell_index(row, col));
  if (it != by_victim_.end()) {
    for (std::size_t id : it->second) {
      const Fault& f = faults_[id];
      switch (f.kind) {
        case FaultKind::StuckAt0: value = false; break;
        case FaultKind::StuckAt1: value = true; break;
        case FaultKind::CouplingState:
          if (get_bit(f.aggressor.row, f.aggressor.col) == f.value) {
            set_bit(row, col, f.value2);
            value = f.value2;
          }
          break;
        default:
          break;
      }
    }
  }
  return value;
}

void PackedRam::write_word_exact(std::uint32_t addr, int ones,
                                 bool complemented) {
  if (repair_enabled_) {
    if (const auto spare = tlb_.lookup(addr)) {
      for (int bit = 0; bit < geo_.bpw; ++bit) {
        const CellAddr c = geo_.spare_cell_of(*spare, bit);
        write_cell(c.row, c.col, (bit < ones) != complemented);
      }
      return;
    }
  }
  for (int bit = 0; bit < geo_.bpw; ++bit) {
    const CellAddr c = geo_.cell_of(addr, bit);
    write_cell(c.row, c.col, (bit < ones) != complemented);
  }
}

bool PackedRam::read_word_matches(std::uint32_t addr, int ones,
                                  bool complemented) {
  bool ok = true;
  if (repair_enabled_) {
    if (const auto spare = tlb_.lookup(addr)) {
      for (int bit = 0; bit < geo_.bpw; ++bit) {
        const CellAddr c = geo_.spare_cell_of(*spare, bit);
        // Read every bit even after the first mismatch: reads carry side
        // effects (CouplingState rewrites the stored victim value).
        if (read_cell(c.row, c.col) != ((bit < ones) != complemented))
          ok = false;
      }
      return ok;
    }
  }
  for (int bit = 0; bit < geo_.bpw; ++bit) {
    const CellAddr c = geo_.cell_of(addr, bit);
    if (read_cell(c.row, c.col) != ((bit < ones) != complemented)) ok = false;
  }
  return ok;
}

PackedBistEngine::PackedBistEngine(PackedRam& ram, BistConfig config)
    : ram_(ram), config_(config) {
  require(config_.test != nullptr, "PackedBistEngine: null march test");
  require(config_.max_passes >= 2,
          "PackedBistEngine: needs at least two passes");
}

std::optional<bool> PackedBistEngine::run_pass(int pass, BistResult& result) {
  const march::MarchTest& test = *config_.test;
  const RamGeometry& geo = ram_.geometry();

  ram_.set_repair_enabled(pass >= 2);

  bool clean = true;
  int ones = 0;  // Johnson fill count (DataGen::reset)
  const int backgrounds = config_.johnson_backgrounds ? geo.bpw + 1 : 1;
  for (int bg = 0; bg < backgrounds; ++bg) {
    for (const auto& element : test.elements()) {
      // Delay elements only matter to Retention faults, which never run
      // on this kernel; the scalar engine's clock advance is a no-op
      // here (and costs no cycles there either).
      if (element.is_delay) continue;

      // Bulk cells, op-major: one masked splat/compare per plane word.
      // The cycle counter covers the *whole* sweep (special addresses
      // included) because the scalar engine counts one cycle per op per
      // address regardless of where the word lives.
      for (march::Op op : element.ops) {
        result.cycles += geo.words;
        const bool v = march::op_value(op);
        if (!march::is_read(op)) {
          ram_.kernel_write(ones, v);
        } else if (!ram_.kernel_read_clean(ones, v)) {
          return std::nullopt;  // bulk invariant broke: rerun scalar
        }
      }

      // Special addresses, address-major in sweep order — the order the
      // scalar engine encounters mismatches in, which fixes the TLB's
      // strictly increasing spare assignment. Bulk/special interleaving
      // is irrelevant: the two touch disjoint cells and only specials
      // record into the TLB.
      const auto& specials = ram_.special_addresses();
      const std::size_t n = specials.size();
      const bool up = march::ascending(element.order);
      for (std::size_t s = 0; s < n; ++s) {
        const std::uint32_t addr = specials[up ? s : n - 1 - s];
        for (march::Op op : element.ops) {
          const bool v = march::op_value(op);
          if (!march::is_read(op)) {
            ram_.write_word_exact(addr, ones, v);
            continue;
          }
          if (ram_.read_word_matches(addr, ones, v)) continue;
          clean = false;
          // Same recording rule as BistEngine::run_pass: every
          // mismatching read records; pass 1 dedups via the CAM compare,
          // pass >= 2 forces a fresh entry (the mapped spare proved bad).
          const auto spare = ram_.tlb().record(addr, /*force_new=*/pass >= 2);
          if (!spare) result.tlb_overflow = true;
        }
      }
    }
    if (config_.johnson_backgrounds && ones < geo.bpw) ++ones;
  }
  return clean;
}

std::optional<BistResult> PackedBistEngine::run() {
  BistResult result;
  for (int pass = 1; pass <= config_.max_passes; ++pass) {
    const std::optional<bool> clean = run_pass(pass, result);
    if (!clean) return std::nullopt;
    ++result.passes_run;
    if (pass == 1) result.pass1_clean = *clean;
    result.spares_used = ram_.tlb().used();

    if (*clean) {
      result.repair_successful = true;
      break;
    }
    if (result.tlb_overflow) break;
  }
  ram_.set_repair_enabled(true);
  return result;
}

BistResult run_bist(const RamGeometry& geo, const std::vector<Fault>& faults,
                    const BistConfig& config, SimKernel kernel,
                    SimKernel* kernel_used) {
  const bool expressible = packed_supported(faults);
  if (kernel == SimKernel::Packed)
    require(expressible,
            "run_bist: fault list contains kinds the packed kernel cannot "
            "express as overlays (StuckOpen/Retention) — use Auto or Scalar");
  if (kernel != SimKernel::Scalar && expressible) {
    PackedRam ram(geo, faults);
    if (const auto result = PackedBistEngine(ram, config).run()) {
      if (kernel_used) *kernel_used = SimKernel::Packed;
      return *result;
    }
  }
  RamModel ram(geo);
  for (const Fault& f : faults) ram.array().inject(f);
  if (kernel_used) *kernel_used = SimKernel::Scalar;
  return BistEngine(ram, config).run();
}

}  // namespace bisram::sim

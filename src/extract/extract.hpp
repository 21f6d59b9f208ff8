#pragma once
// Layout -> netlist extraction. BISRAMGEN extracts its generated leaf
// cells and simulates them (paper Fig. 1: "extract and simulate leaf
// cells ahead of time, thereby extrapolating timing, area and power
// guarantees"). The extractor recognizes MOS devices where poly crosses
// diffusion (splitting the diffusion into source/drain segments), builds
// net connectivity through contacts and vias, estimates per-net wiring
// capacitance from the technology's parasitic data, and maps cell ports
// to nets so tests can verify the topology of generated cells.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/cell.hpp"
#include "geom/layout_db.hpp"
#include "spice/netlist.hpp"
#include "tech/tech.hpp"

namespace bisram::extract {

/// One recognized transistor.
struct Device {
  spice::MosType type = spice::MosType::Nmos;
  int gate = -1;    ///< net ids
  int source = -1;  ///< (source/drain assignment is arbitrary; devices
  int drain = -1;   ///<  are symmetric)
  double w_um = 0;
  double l_um = 0;
  /// Instance path of the diffusion shape the channel was recognized on
  /// (LayoutDB provenance; "" for shapes owned by the top cell).
  std::string path;
};

/// Extraction result.
struct Extracted {
  int net_count = 0;
  std::vector<Device> devices;
  std::map<std::string, int> port_net;  ///< cell port name -> net id
  std::vector<double> net_cap_f;        ///< estimated wire cap per net

  /// Devices whose gate is on `net`.
  std::vector<Device> gated_by(int net) const;
  /// Devices with one S/D terminal on `net`.
  std::vector<Device> touching(int net) const;
  /// True when some device connects nets a and b through its channel.
  bool channel_between(int a, int b) const;
};

/// Pieces (and diffusion shapes) per work unit of the parallel build.
/// A layout with fewer — every leaf cell — is extracted inline, without
/// touching the campaign pool.
inline constexpr std::int64_t kBuildChunk = 1 << 14;

/// Extracts a prebuilt layout database (the signoff path: one LayoutDB
/// shared with DRC and the writers). Ports come from db.ports(). The
/// diffusion split and the edge discovery run on the campaign pool
/// (util/parallel.hpp), and the netlist is bit-identical at any
/// BISRAM_THREADS value.
Extracted extract(const geom::LayoutDB& db, const tech::Tech& tech);

/// Convenience: flattens `top` into a LayoutDB and extracts it.
Extracted extract(const geom::Cell& top, const tech::Tech& tech);

}  // namespace bisram::extract

// The BISRAMGEN command-line tool: the user-facing entry point the paper
// describes ("When invoked, BISRAMGEN allows the user to input the values
// of the circuit parameters...").
//
// Usage:
//   bisramgen_cli [options]
//     --words N          number of words            (default 1024)
//     --bpw N            bits per word              (default 16)
//     --bpc N            bits per column, pow2      (default 4)
//     --spares N         spare rows: 4, 8 or 16     (default 4)
//     --gate-size X      critical gate multiplier   (default 2.0)
//     --strap N          cells between straps, 0=off(default 32)
//     --tech NAME        cda.5u3m1p | cda.7u3m1p | mos.6u3m1pHP
//     --tech-file PATH   load a user technology deck (see tech_file.hpp);
//                        prints the parsed deck and exits when used with
//                        --check-tech
//     --test NAME        ifa9 | ifa13 | matsp | marchc
//     --passes N         BIST passes (>= 2)         (default 2)
//     --out DIR          output directory           (default ".")
//     --cif              write full-hierarchy CIF
//     --svg              write mask SVG (small modules only)
//     --drc              run full DRC on the module
//
// Outputs into DIR: datasheet.txt, floorplan.svg, trpla_and.pla,
// trpla_or.pla, and optionally module.cif / module.svg.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/compiler.hpp"
#include "geom/writers.hpp"
#include "tech/tech_file.hpp"

using namespace bisram;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--words N] [--bpw N] [--bpc N] [--spares N]\n"
               "          [--gate-size X] [--strap N] [--tech NAME]\n"
               "          [--test ifa9|ifa13|matsp|marchc] [--passes N]\n"
               "          [--out DIR] [--cif] [--svg] [--drc]\n",
               argv0);
  std::exit(2);
}

const march::MarchTest* test_by_name(const std::string& name) {
  if (name == "ifa9") return &march::ifa9();
  if (name == "ifa13") return &march::ifa13();
  if (name == "matsp") return &march::mats_plus();
  if (name == "marchc") return &march::march_c_minus();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  core::RamSpec spec;
  spec.words = 1024;
  spec.bpw = 16;
  spec.bpc = 4;
  std::string out_dir = ".";
  bool want_cif = false, want_svg = false;
  tech::Tech user_tech;  // storage for --tech-file (outlives the compile)

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--words") spec.words = static_cast<std::uint32_t>(std::atoll(next()));
    else if (arg == "--bpw") spec.bpw = std::atoi(next());
    else if (arg == "--bpc") spec.bpc = std::atoi(next());
    else if (arg == "--spares") spec.spare_rows = std::atoi(next());
    else if (arg == "--gate-size") spec.gate_size = std::atof(next());
    else if (arg == "--strap") spec.strap_interval = std::atoi(next());
    else if (arg == "--tech") spec.technology = next();
    else if (arg == "--tech-file") {
      std::ifstream deck(next());
      if (!deck) {
        std::fprintf(stderr, "bisramgen: cannot open tech deck\n");
        return 2;
      }
      try {
        user_tech = tech::read_tech_file(deck);
      } catch (const Error& e) {
        std::fprintf(stderr, "bisramgen: bad tech deck: %s\n", e.what());
        return 2;
      }
      spec.custom_tech = std::make_shared<const tech::Tech>(user_tech);
      spec.technology = user_tech.name;
    }
    else if (arg == "--passes") spec.max_passes = std::atoi(next());
    else if (arg == "--out") out_dir = next();
    else if (arg == "--cif") want_cif = true;
    else if (arg == "--svg") want_svg = true;
    else if (arg == "--drc") spec.run_drc = true;
    else if (arg == "--test") {
      const march::MarchTest* t = test_by_name(next());
      if (!t) usage(argv[0]);
      spec.test = t;
    } else {
      usage(argv[0]);
    }
  }

  try {
    spec.validate();
  } catch (const Error& e) {
    std::fprintf(stderr, "bisramgen: invalid specification: %s\n", e.what());
    return 2;
  }

  std::printf("BISRAMGEN: compiling %u x %d RAM (%s, %s, %d passes)...\n",
              spec.words, spec.bpw, spec.technology.c_str(),
              spec.test->name().c_str(), spec.max_passes);
  const core::Generated g = core::Compiler().run(spec);
  const tech::Tech& t = spec.resolved_technology();

  auto path = [&](const char* name) { return out_dir + "/" + name; };
  {
    std::ofstream f(path("datasheet.txt"));
    f << g.sheet.render();
  }
  {
    std::ofstream f(path("floorplan.svg"));
    geom::write_svg_outline(f, *g.top, 2, 1600);
  }
  {
    std::ofstream fa(path("trpla_and.pla")), fo(path("trpla_or.pla"));
    g.trpla.pla.write_and_plane(fa);
    g.trpla.pla.write_or_plane(fo);
  }
  if (want_cif) {
    std::ofstream f(path("module.cif"));
    geom::write_cif(f, *g.top, t.lambda_um * 1000.0);
  }
  if (want_svg) {
    if (g.sheet.geo.bits() > 64 * 1024) {
      std::fprintf(stderr, "bisramgen: --svg skipped (module over 64 Kb "
                           "flattens to too many rectangles)\n");
    } else {
      std::ofstream f(path("module.svg"));
      geom::write_svg(f, *g.top, 2400);
    }
  }

  std::printf("%s", g.sheet.render().c_str());
  if (spec.run_drc)
    std::printf("DRC violations: %zu\n", g.sheet.drc_violations);
  std::printf("wrote datasheet.txt, floorplan.svg, trpla_{and,or}.pla in %s\n",
              out_dir.c_str());
  return 0;
}

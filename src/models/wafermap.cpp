#include "models/wafermap.hpp"

#include <cmath>
#include <set>

#include "sim/importance.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bisram::models {

WaferResult simulate_wafer(const WaferSpec& spec, std::uint64_t seed) {
  require(spec.wafer_mm > 0 && spec.die_w_mm > 0 && spec.die_h_mm > 0,
          "simulate_wafer: bad dimensions");
  require(spec.ram_fraction > 0 && spec.ram_fraction < 1,
          "simulate_wafer: ram_fraction must be in (0,1)");
  spec.ram_geo.validate();

  const double radius = spec.wafer_mm / 2.0;
  const int cols = static_cast<int>(spec.wafer_mm / spec.die_w_mm);
  const int rows = static_cast<int>(spec.wafer_mm / spec.die_h_mm);
  const double die_cm2 = spec.die_w_mm * spec.die_h_mm / 100.0;
  const double mean_defects = spec.defects_per_cm2 * die_cm2;

  WaferResult result;
  result.map.assign(static_cast<std::size_t>(rows),
                    std::vector<DieState>(static_cast<std::size_t>(cols),
                                          DieState::OffWafer));

  const int spare_words = spec.ram_geo.spare_words();
  const std::uint64_t ram_rows =
      static_cast<std::uint64_t>(spec.ram_geo.total_rows());
  const std::uint64_t ram_cols = static_cast<std::uint64_t>(spec.ram_geo.cols());

  // Each die draws from its own grid-indexed seed sub-stream and writes
  // only its own map cell, so dies simulate concurrently with the same
  // outcome as the serial scan.
  struct Counts {
    int total = 0, good = 0, repaired = 0, bad = 0;
  };
  const Counts counts = parallel_reduce<Counts>(
      static_cast<std::int64_t>(rows) * cols, /*chunk=*/8, Counts{},
      [&](std::int64_t die) {
        const int r = static_cast<int>(die / cols);
        const int c = static_cast<int>(die % cols);
        // Die corner coordinates relative to wafer centre.
        const double x0 = c * spec.die_w_mm - radius;
        const double y0 = r * spec.die_h_mm - radius;
        // A die is usable when all four corners are inside the circle.
        bool inside = true;
        for (double dx : {0.0, spec.die_w_mm})
          for (double dy : {0.0, spec.die_h_mm})
            if (std::hypot(x0 + dx, y0 + dy) > radius) inside = false;
        if (!inside) return Counts{};
        Counts out;
        out.total = 1;

        Rng rng(stream_seed(seed, static_cast<std::uint64_t>(die)));
        // Clustered statistics: this die's defect rate is Gamma-mixed, so
        // the count is negative-binomial with the Stapper alpha.
        const std::int64_t k =
            mean_defects <= 0.0
                ? 0
                : poisson_sample(
                      rng, gamma_sample(rng, spec.cluster_alpha,
                                        mean_defects / spec.cluster_alpha));

        // Scatter defects between RAM and logic; within the RAM, place
        // them on uniformly random cells and test repairability.
        bool logic_hit = false;
        bool spare_hit = false;
        std::set<std::uint32_t> faulty_words;
        for (std::int64_t d = 0; d < k; ++d) {
          if (!rng.chance(spec.ram_fraction)) {
            logic_hit = true;
            continue;
          }
          const int cell_row = static_cast<int>(rng.below(ram_rows));
          const int cell_col = static_cast<int>(rng.below(ram_cols));
          if (cell_row >= spec.ram_geo.rows()) {
            spare_hit = true;
            continue;
          }
          const std::uint32_t addr =
              static_cast<std::uint32_t>(cell_row) *
                  static_cast<std::uint32_t>(spec.ram_geo.bpc) +
              static_cast<std::uint32_t>(cell_col % spec.ram_geo.bpc);
          faulty_words.insert(addr);
        }

        DieState state;
        if (k == 0) {
          state = DieState::Good;
          out.good = 1;
        } else if (logic_hit || spare_hit ||
                   static_cast<int>(faulty_words.size()) > spare_words) {
          state = DieState::Bad;
          out.bad = 1;
        } else {
          state = DieState::Repaired;
          out.repaired = 1;
        }
        result.map[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
            state;
        return out;
      },
      [](Counts a, Counts b) {
        return Counts{a.total + b.total, a.good + b.good,
                      a.repaired + b.repaired, a.bad + b.bad};
      });
  result.dies_total = counts.total;
  result.good = counts.good;
  result.repaired = counts.repaired;
  result.bad = counts.bad;
  return result;
}

namespace {

/// One die's defect trial: scatters `k` defects (drawn when k < 0, as in
/// simulate_wafer's per-die body) between the embedded RAM and the rest
/// of the chip, and classifies the die. Returns the classification plus
/// the count actually drawn.
struct DieTrial {
  DieState state = DieState::Good;
  std::int64_t defects = 0;
};

DieTrial run_die_trial(Rng& rng, const WaferSpec& spec, double mean_defects,
                       std::int64_t fixed_k) {
  const int spare_words = spec.ram_geo.spare_words();
  const std::uint64_t ram_rows =
      static_cast<std::uint64_t>(spec.ram_geo.total_rows());
  const std::uint64_t ram_cols =
      static_cast<std::uint64_t>(spec.ram_geo.cols());

  DieTrial trial;
  trial.defects =
      fixed_k >= 0
          ? fixed_k
          : (mean_defects <= 0.0
                 ? 0
                 : poisson_sample(
                       rng, gamma_sample(rng, spec.cluster_alpha,
                                         mean_defects / spec.cluster_alpha)));

  bool logic_hit = false;
  bool spare_hit = false;
  std::set<std::uint32_t> faulty_words;
  for (std::int64_t d = 0; d < trial.defects; ++d) {
    if (!rng.chance(spec.ram_fraction)) {
      logic_hit = true;
      continue;
    }
    const int cell_row = static_cast<int>(rng.below(ram_rows));
    const int cell_col = static_cast<int>(rng.below(ram_cols));
    if (cell_row >= spec.ram_geo.rows()) {
      spare_hit = true;
      continue;
    }
    const std::uint32_t addr =
        static_cast<std::uint32_t>(cell_row) *
            static_cast<std::uint32_t>(spec.ram_geo.bpc) +
        static_cast<std::uint32_t>(cell_col % spec.ram_geo.bpc);
    faulty_words.insert(addr);
  }

  if (trial.defects == 0) {
    trial.state = DieState::Good;
  } else if (logic_hit || spare_hit ||
             static_cast<int>(faulty_words.size()) > spare_words) {
    trial.state = DieState::Bad;
  } else {
    trial.state = DieState::Repaired;
  }
  return trial;
}

/// Usable (fully inside the circle) dies on one physical wafer.
int usable_dies(const WaferSpec& spec) {
  const double radius = spec.wafer_mm / 2.0;
  const int cols = static_cast<int>(spec.wafer_mm / spec.die_w_mm);
  const int rows = static_cast<int>(spec.wafer_mm / spec.die_h_mm);
  int usable = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double x0 = c * spec.die_w_mm - radius;
      const double y0 = r * spec.die_h_mm - radius;
      bool inside = true;
      for (double dx : {0.0, spec.die_w_mm})
        for (double dy : {0.0, spec.die_h_mm})
          if (std::hypot(x0 + dx, y0 + dy) > radius) inside = false;
      if (inside) ++usable;
    }
  }
  return usable;
}

struct StreamCounts {
  std::int64_t good = 0;
  std::int64_t saved = 0;  ///< good or repaired
  WelfordAccumulator defects;
};

/// Chunk size for a stream of `trials` die trials: grows with the trial
/// count (but never depends on the thread count, keeping the fold — and
/// so the Welford rounding — bit-identical for any BISRAM_THREADS), so
/// the engine holds at most ~4096 chunk partials regardless of how many
/// million dies stream through. Checkpoint segments MUST compute this
/// from the *full* stream length, never a segment's, or the fold
/// association (and the bits) would depend on where the checkpoints
/// landed.
std::int64_t die_chunk(std::int64_t trials) {
  return trials / 4096 > 1024 ? trials / 4096 : 1024;
}

/// Folds die trials [lo, hi) of a `chunk`-chunked stream based at
/// `base_offset`, continuing the left fold from `initial`. As long as
/// `lo` is a chunk multiple and `chunk` came from die_chunk(full
/// length), splitting a stream into segments at arbitrary boundaries
/// reproduces the uninterrupted fold bit for bit — each trial keeps its
/// absolute seed sub-stream, each chunk keeps its absolute extent, and
/// `initial` keeps the caller-side association.
StreamCounts run_die_range(const WaferSpec& spec, double mean_defects,
                           std::int64_t fixed_k,
                           const sim::CampaignSpec& campaign,
                           std::int64_t lo, std::int64_t hi,
                           std::int64_t chunk, std::uint64_t base_offset,
                           const StreamCounts& initial,
                           std::int64_t* seg_done,
                           sim::CampaignProvenance* provenance) {
  sim::CampaignSpec sub = campaign;
  sub.trials = static_cast<int>(hi - lo);
  return sim::run_campaign<StreamCounts>(
      sub, chunk, StreamCounts{},
      [&](Rng& rng, std::int64_t, sim::KernelTally&) {
        const DieTrial t = run_die_trial(rng, spec, mean_defects, fixed_k);
        StreamCounts c;
        if (t.state == DieState::Good) ++c.good;
        if (t.state != DieState::Bad) ++c.saved;
        c.defects.add(static_cast<double>(t.defects));
        return c;
      },
      [](StreamCounts a, StreamCounts b) {
        a.good += b.good;
        a.saved += b.saved;
        a.defects.merge(b.defects);
        return a;
      },
      provenance, base_offset + static_cast<std::uint64_t>(lo), seg_done,
      &initial);
}

/// Serialized form of one StreamCounts accumulator (5 payload words).
void put_counts(CheckpointWriter& w, const StreamCounts& c) {
  w.i64(c.good).i64(c.saved).i64(c.defects.count());
  w.f64(c.defects.mean()).f64(c.defects.raw_m2());
}

StreamCounts get_counts(CheckpointReader& r) {
  StreamCounts c;
  c.good = r.i64();
  c.saved = r.i64();
  const std::int64_t n = r.i64();
  const double mean = r.f64();
  const double m2 = r.f64();
  c.defects = WelfordAccumulator::restore(n, mean, m2);
  return c;
}

/// Everything the wafer campaign's bit-exact result depends on. Thread
/// count, kernel (unused by die trials) and checkpoint cadence are
/// deliberately excluded: results are invariant to all of them, so a
/// checkpoint written at one cadence/thread count resumes under another.
std::uint64_t wafer_fingerprint(const WaferSpec& spec,
                                const sim::CampaignSpec& campaign) {
  Fingerprint fp;
  fp.mix_str("wafer_yield_campaign");
  fp.mix_f64(spec.wafer_mm).mix_f64(spec.die_w_mm).mix_f64(spec.die_h_mm);
  fp.mix_f64(spec.defects_per_cm2).mix_f64(spec.cluster_alpha);
  fp.mix_f64(spec.ram_fraction);
  fp.mix(spec.ram_geo.words).mix_i64(spec.ram_geo.bpw);
  fp.mix_i64(spec.ram_geo.bpc).mix_i64(spec.ram_geo.spare_rows);
  fp.mix(campaign.seed).mix_i64(campaign.trials);
  fp.mix_i64(static_cast<std::int64_t>(campaign.sampling.mode));
  fp.mix_f64(campaign.sampling.tail_mass);
  fp.mix_i64(campaign.sampling.min_stratum_trials);
  return fp.value();
}

/// Standard error of a Bernoulli mean from its success count.
double wafer_bernoulli_se(std::int64_t successes, std::int64_t n) {
  if (n < 2) return 0.0;
  const double p = static_cast<double>(successes) / static_cast<double>(n);
  return std::sqrt(p * (1.0 - p) / static_cast<double>(n - 1));
}

}  // namespace

sim::CampaignResult<WaferCampaignStats> wafer_yield_campaign(
    const WaferSpec& spec, const sim::CampaignSpec& campaign) {
  require(spec.wafer_mm > 0 && spec.die_w_mm > 0 && spec.die_h_mm > 0,
          "wafer_yield_campaign: bad dimensions");
  require(spec.ram_fraction > 0 && spec.ram_fraction < 1,
          "wafer_yield_campaign: ram_fraction must be in (0,1)");
  spec.ram_geo.validate();

  const double die_cm2 = spec.die_w_mm * spec.die_h_mm / 100.0;
  const double mean_defects = spec.defects_per_cm2 * die_cm2;

  sim::CampaignResult<WaferCampaignStats> out;
  out.provenance.seed = campaign.seed;
  out.provenance.threads = sim::resolve_campaign_threads(campaign);
  out.provenance.kernel = campaign.kernel;
  out.provenance.sampling = campaign.sampling.mode;
  out.value.dies = campaign.trials;
  out.value.dies_per_wafer = usable_dies(spec);

  const sim::CheckpointSpec& ck = campaign.checkpoint;
  const bool resumed = ck.resuming();
  const std::uint64_t fprint = wafer_fingerprint(spec, campaign);
  sim::CheckpointCadence cadence;
  std::int64_t run_done = 0;  // trials processed by *this* process
  auto due = [&](bool force) { return cadence.due(ck, force); };

  if (campaign.sampling.mode == sim::SamplingMode::Plain) {
    const std::int64_t total = campaign.trials;
    const std::int64_t chunk = die_chunk(total);
    const std::int64_t seg = sim::checkpoint_segment_trials(ck, chunk, total);

    StreamCounts master;
    std::int64_t done = 0;
    if (resumed) {
      CheckpointReader r(ck.resume, fprint);
      require(r.u64() == 0,
              strfmt("checkpoint: '%s' was written by a stratified "
                     "campaign; this one samples plain",
                     ck.resume.c_str()));
      done = r.i64();
      master = get_counts(r);
      require(done >= 0 && done <= total && master.defects.count() == done,
              strfmt("checkpoint: '%s' carries an inconsistent trial count",
                     ck.resume.c_str()));
    }

    auto write_ckpt = [&] {
      CheckpointWriter w(fprint);
      w.u64(0).i64(done);
      put_counts(w, master);
      w.save(ck.path);
      cadence.note_write();
      ++out.provenance.checkpoints_written;
    };

    Termination term = Termination::Completed;
    while (done < total) {
      if (campaign.cancel && campaign.cancel->stop_requested()) {
        term = campaign.cancel->stop_reason();
        break;
      }
      if (ck.pause_after > 0 && run_done >= ck.pause_after) {
        if (due(true)) write_ckpt();
        term = Termination::Cancelled;
        break;
      }
      const std::int64_t hi = std::min(total, done + seg);
      const std::int64_t want = hi - done;
      std::int64_t seg_done = 0;
      master = run_die_range(spec, mean_defects, /*fixed_k=*/-1, campaign,
                             done, hi, chunk, /*base_offset=*/0, master,
                             &seg_done, &out.provenance);
      done += seg_done;
      run_done += seg_done;
      if (seg_done < want) {  // token fired mid-segment: partial fold only
        term = campaign.cancel ? campaign.cancel->stop_reason()
                               : Termination::Cancelled;
        break;
      }
      if (due(done == total)) write_ckpt();
    }
    if (done >= total)
      term = resumed ? Termination::Resumed : Termination::Completed;

    const std::int64_t n = master.defects.count();
    out.value.yield_without_bisr =
        n ? static_cast<double>(master.good) / static_cast<double>(n) : 0.0;
    out.value.yield_without_bisr_se = wafer_bernoulli_se(master.good, n);
    out.value.yield_with_bisr =
        n ? static_cast<double>(master.saved) / static_cast<double>(n) : 0.0;
    out.value.yield_with_bisr_se = wafer_bernoulli_se(master.saved, n);
    out.value.mean_defects_per_die = master.defects.mean();
    out.value.mean_defects_per_die_se = master.defects.std_error();
    out.value.die_sims = n;
    out.provenance.trials = total;
    out.provenance.trials_done = n;
    out.termination = term;
    return out;
  }

  // Stratified importance sampling over the die defect count. The zero
  // stratum is the entire without-BISR yield (a die is Good iff it has
  // zero defects), so that estimate is exact; only the with-BISR rescue
  // probability needs conditional simulation. Each stratum's defect
  // count is pinned, so the reweighted mean-defects estimate is a
  // deterministic sum with zero standard error; the truncated tail
  // counts as Bad and contributes zero defect mass (bias bounded by
  // tail_mass * k_max, far below visibility at the default).
  //
  // Checkpoints record (current stratum, trials into it, its partial
  // accumulator, the saved-count of every finished stratum). The plan
  // itself is a deterministic function of fingerprinted inputs, so it is
  // recomputed, never stored.
  const sim::StrataPlan plan = sim::plan_strata(
      mean_defects, spec.cluster_alpha, campaign.trials, campaign.sampling);
  std::vector<sim::StratumCount> saved(plan.strata.size(),
                                       sim::StratumCount{0, 0});
  std::vector<sim::StratumMoments> defects;
  for (const sim::Stratum& st : plan.strata)
    defects.push_back({static_cast<double>(st.defects), 0.0, st.trials});

  std::size_t s0 = 0;
  std::int64_t done0 = 0;  // trials into stratum s0 at resume
  StreamCounts cur0;
  if (resumed) {
    CheckpointReader r(ck.resume, fprint);
    require(r.u64() == 1,
            strfmt("checkpoint: '%s' was written by a plain campaign; "
                   "this one samples stratified",
                   ck.resume.c_str()));
    s0 = static_cast<std::size_t>(r.i64());
    done0 = r.i64();
    cur0 = get_counts(r);
    require(s0 <= plan.strata.size(),
            strfmt("checkpoint: '%s' names a stratum past the plan",
                   ck.resume.c_str()));
    require(done0 >= 0 && cur0.defects.count() == done0 &&
                (s0 == plan.strata.size()
                     ? done0 == 0
                     : done0 <= plan.strata[s0].trials),
            strfmt("checkpoint: '%s' carries an inconsistent trial count",
                   ck.resume.c_str()));
    for (std::size_t i = 0; i < s0; ++i)
      saved[i] = {r.i64(), plan.strata[i].trials};
  }

  std::int64_t total_done = done0;
  for (std::size_t i = 0; i < s0; ++i) total_done += plan.strata[i].trials;

  Termination term = Termination::Completed;
  std::size_t s = s0;
  std::int64_t done = done0;
  StreamCounts master = cur0;

  auto write_ckpt = [&] {
    CheckpointWriter w(fprint);
    w.u64(1).i64(static_cast<std::int64_t>(s)).i64(done);
    put_counts(w, master);
    for (std::size_t i = 0; i < s; ++i) w.i64(saved[i].successes);
    w.save(ck.path);
    cadence.note_write();
    ++out.provenance.checkpoints_written;
  };

  bool stopped = false;
  while (s < plan.strata.size() && !stopped) {
    const sim::Stratum& st = plan.strata[s];
    const std::int64_t chunk = die_chunk(st.trials);
    const std::int64_t seg =
        sim::checkpoint_segment_trials(ck, chunk, st.trials);
    while (done < st.trials) {
      if (campaign.cancel && campaign.cancel->stop_requested()) {
        term = campaign.cancel->stop_reason();
        stopped = true;
        break;
      }
      if (ck.pause_after > 0 && run_done >= ck.pause_after) {
        if (due(true)) write_ckpt();
        term = Termination::Cancelled;
        stopped = true;
        break;
      }
      const std::int64_t hi = std::min<std::int64_t>(st.trials, done + seg);
      const std::int64_t want = hi - done;
      std::int64_t seg_done = 0;
      master = run_die_range(spec, mean_defects, st.defects, campaign, done,
                             hi, chunk, sim::stratum_stream_offset(s), master,
                             &seg_done, &out.provenance);
      done += seg_done;
      run_done += seg_done;
      total_done += seg_done;
      if (seg_done < want) {
        term = campaign.cancel ? campaign.cancel->stop_reason()
                               : Termination::Cancelled;
        stopped = true;
        break;
      }
      if (done < st.trials && due(false)) write_ckpt();
    }
    saved[s] = {master.saved, done};  // partial counts stay valid
    if (!stopped) {
      ++s;
      done = 0;
      master = StreamCounts{};
      // Boundary between strata is also a resumable boundary.
      if (due(s == plan.strata.size())) write_ckpt();
    }
  }
  if (!stopped) term = resumed ? Termination::Resumed : Termination::Completed;

  out.value.yield_without_bisr = plan.zero_probability;
  out.value.yield_without_bisr_se = 0.0;
  const sim::WeightedEstimate with_bisr = sim::combine_strata_bernoulli(
      plan, saved, /*zero_value=*/1.0, /*tail_value=*/0.0);
  out.value.yield_with_bisr = with_bisr.value;
  out.value.yield_with_bisr_se = with_bisr.std_error;
  const sim::WeightedEstimate mean_k =
      sim::combine_strata(plan, defects, 0.0, 0.0);
  out.value.mean_defects_per_die = mean_k.value;
  out.value.mean_defects_per_die_se = mean_k.std_error;
  out.value.die_sims = total_done;
  out.provenance.strata = static_cast<std::int64_t>(plan.strata.size());
  out.provenance.trials = plan.total_trials();
  out.provenance.trials_done = total_done;
  out.termination = term;
  return out;
}

std::string render_wafer(const WaferResult& result) {
  std::string out;
  for (const auto& row : result.map) {
    for (DieState s : row) {
      switch (s) {
        case DieState::OffWafer: out += ' '; break;
        case DieState::Good: out += 'O'; break;
        case DieState::Repaired: out += 'R'; break;
        case DieState::Bad: out += 'X'; break;
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace bisram::models

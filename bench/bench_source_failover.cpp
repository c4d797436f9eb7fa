/// Source failover — the canonical source-level chaos campaign on the
/// paper's Fig. 5 tree (DESIGN.md §13).
///
/// A stratum-1 GPS source and a stratum-2 upstream-island source feed
/// hierarchy clients on the remaining leaves; the campaign kills the GPS,
/// turns it into a lying grandmaster, partitions S3's subtree away from
/// every source (holdover), and flaps the GPS's advertised stratum. Gates:
///
///   * gps_loss: every client locked to another source within two source
///     broadcast intervals (p99, reported in 100 us broadcast units);
///   * rogue_grandmaster: the lie is rejected and the source deselected on
///     every client while the truthful source keeps serving; reconverges
///     once the lie is cleared;
///   * island_partition: the stranded clients ride holdover with an
///     uncertainty that grows, stays under the refuse-to-serve ceiling, and
///     never understates the true error; served UTC reconverges to the
///     tree's 4TD envelope after the heal;
///   * stratum_flap: selection tracks the advertisement and settles;
///   * the invariant sentinel stays clean with its UTC monitors armed
///     through every fault (no backward served step, honest uncertainty).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "chaos/campaign.hpp"
#include "stress/runner.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 4242));

  banner("Source failover  canonical source-level campaign (Fig. 5 tree)");

  stress::Campaign campaign(stress::named_spec("source", seed));
  sim::Simulator& sim = campaign.sim();
  const dtp::TimeHierarchy& hierarchy = campaign.hierarchy();

  // Holdover telemetry: worst true drift and worst reported uncertainty of
  // any client while free-running, plus an honesty flag sampled at the same
  // instants (|served - true| must never exceed the reported uncertainty).
  double max_drift_fs = 0, max_uncertainty_fs = 0;
  bool holdover_honest = true;
  sim::PeriodicProcess holdover_probe(
      sim, from_us(20),
      [&] {
        const fs_t now = sim.now();
        for (const auto& c : hierarchy.clients()) {
          const dtp::ServedTime st = c->serve(now);
          if (st.status != dtp::HierarchyStatus::kHoldover) continue;
          const double err = std::abs(st.utc - static_cast<double>(now));
          max_drift_fs = std::max(max_drift_fs, err);
          max_uncertainty_fs = std::max(max_uncertainty_fs, st.uncertainty);
          if (err > st.uncertainty) holdover_honest = false;
        }
      },
      sim::EventCategory::kProbe);
  holdover_probe.start();

  const stress::CampaignResult result = campaign.run();

  const chaos::CampaignReport& report = campaign.engine().report();
  report.print(std::cout);
  std::printf("  holdover: worst drift %.1f ns, worst uncertainty %.1f ns "
              "(ceiling %.1f ns)\n",
              max_drift_fs * 1e-6, max_uncertainty_fs * 1e-6,
              static_cast<double>(
                  chaos::SourceCampaign::hierarchy_params().holdover_ceiling) *
                  1e-6);
  print_sim_stats(sim);

  BenchJson json;
  json.add("seed", static_cast<std::uint64_t>(seed));
  json.add("source_period_us",
           static_cast<double>(chaos::SourceCampaign::source_period()) * 1e-9);
  json.add("threshold_ticks", chaos::SourceCampaign::threshold_ticks());

  bool pass = benchutil::check("every probe reported", campaign.engine().all_probes_done());
  for (const auto& [cls, s] : report.by_class()) {
    json.add(cls + "_n", static_cast<std::uint64_t>(s.n));
    json.add(cls + "_converged", static_cast<std::uint64_t>(s.converged));
    json.add(cls + "_p50_bi", s.p50_bi);
    json.add(cls + "_p99_bi", s.p99_bi);
    pass &= benchutil::check((cls + ": converged").c_str(),
                             s.converged == s.n && s.n == 1);
  }
  const chaos::ClassSummary gps = report.summary("gps_loss");
  pass &= benchutil::check("gps_loss: failover p99 <= 2 broadcast intervals",
                gps.p99_bi <= 2.0);
  const chaos::ClassSummary rogue = report.summary("rogue_grandmaster");
  pass &= benchutil::check("rogue grandmaster deselected while a truthful source served",
                rogue.isolated);

  json.add("holdover_max_drift_ns", max_drift_fs * 1e-6);
  json.add("holdover_max_uncertainty_ns", max_uncertainty_fs * 1e-6);
  json.add("holdover_ceiling_ns",
           static_cast<double>(
               chaos::SourceCampaign::hierarchy_params().holdover_ceiling) *
               1e-6);
  pass &= benchutil::check("island partition actually produced holdover",
                max_uncertainty_fs > 0);
  pass &= benchutil::check("holdover uncertainty never understated the true drift",
                holdover_honest);
  pass &= benchutil::check("holdover stayed under the refuse-to-serve ceiling",
                max_uncertainty_fs <= static_cast<double>(
                    chaos::SourceCampaign::hierarchy_params().holdover_ceiling));

  json.add("utc_checks", result.sentinel_stats.utc_checks);
  json.add("violations", campaign.sentinel().violation_count());
  json.add("digest", result.digest.hex());
  pass &= benchutil::check("sentinel UTC monitors ran", result.sentinel_stats.utc_checks > 0);
  for (const auto& v : result.violations) std::cout << "  !! " << v.to_string() << "\n";
  pass &= benchutil::check("sentinel clean (no backward step, honest uncertainty)",
                result.clean());

  json.add("pass", pass);
  const std::string out = json_out_path(flags, "source_failover");
  json.write(out);
  return pass ? 0 : 1;
}

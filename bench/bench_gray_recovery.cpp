/// Gray-failure recovery — the canonical gray campaign on the paper's Fig. 5
/// tree under MTU-saturated load (DESIGN.md §15).
///
/// Two runs gate the per-port health watchdog end to end. A fault-free
/// control run must produce zero suspicions — the plausibility gate and
/// sibling cross-check sit above everything a healthy network does, so any
/// suspicion on clean hardware is a false positive. The fault run injects
/// one instance of every gray class — asymmetric delay, limping port, silent
/// corruption, frozen counter — and requires each victim port detected
/// (suspicion inside its fault window), remediated through the escalation
/// ladder within the attempt ceiling, back to HEALTHY by the end, with no
/// port disabled, no suspicion outside a fault window, and the sentinel
/// clean. Detection latency (first suspicion minus injection) is reported
/// as p50/p99 across victim ports and p99-gated.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "stress/runner.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 4242));
  stress::StressSpec spec = stress::named_spec("gray", seed);
  spec.wd_check_period = flags.get_duration("wd-check-period", 0);  // 0 = campaign default
  spec.wd_backoff = flags.get_duration("wd-backoff", 0);
  const fs_t detection_p99_ceiling =
      flags.get_duration("detection-ceiling", from_ms(1));

  banner("Gray-failure recovery  watchdog escalation (Fig. 5 tree, MTU load)");

  // ---- Control run: same network, same load, no faults -------------------
  std::uint64_t control_suspects = 0;
  bool control_clean = false;
  {
    stress::StressSpec quiet = spec;
    quiet.faults.clear();  // and with them every blackout window
    stress::Campaign control(quiet);
    control_clean = control.run().clean();
    control_suspects = control.watchdog()->total_suspects();
    std::printf("  control: suspects=%llu quarantines=%llu sentinel=%s\n",
                static_cast<unsigned long long>(control_suspects),
                static_cast<unsigned long long>(control.watchdog()->total_quarantines()),
                control_clean ? "clean" : "VIOLATED");
  }

  // ---- Fault run: one instance of every gray class ------------------------
  stress::Campaign run(spec);
  const stress::CampaignResult result = run.run();
  const dtp::HealthWatchdog& watchdog = *run.watchdog();
  const dtp::WatchdogParams& wp = watchdog.params();

  const chaos::CampaignReport& report = run.engine().report();
  report.print(std::cout);

  // Fault windows (the plan's schedule is non-overlapping): a suspicion is
  // attributed to the window containing it; the remediation tail may run
  // past the heal, so the window extends by the campaign's 3 ms margin.
  struct Window {
    chaos::FaultKind kind;
    fs_t from, until;
    bool detected = false;
  };
  std::vector<Window> windows;
  for (const auto& f : spec.faults)
    windows.push_back({f.kind, f.at, f.at + f.duration + from_ms(3)});

  SampleSeries detection_us;
  int max_attempts = 0;
  std::uint64_t remediated = 0, stray_suspects = 0, unhealthy_at_end = 0;
  for (std::size_t i = 0; i < watchdog.watch_count(); ++i) {
    const dtp::WatchdogPortStats& ws = watchdog.watch_stats(i);
    if (ws.suspects == 0) continue;
    Window* w = nullptr;
    for (auto& cand : windows)
      if (ws.first_suspected_at >= cand.from && ws.first_suspected_at < cand.until)
        w = &cand;
    if (w == nullptr) {
      ++stray_suspects;
      std::printf("  STRAY suspicion on %s at %.1f us\n",
                  watchdog.watch_label(i).c_str(),
                  to_ns_f(ws.first_suspected_at) / 1000.0);
      continue;
    }
    w->detected = true;
    if (ws.quarantines > 0) ++remediated;
    max_attempts = std::max(max_attempts, ws.attempts);
    const double latency_us = to_ns_f(ws.first_suspected_at - w->from) / 1000.0;
    detection_us.add(latency_us);
    const dtp::PortHealth health = watchdog.watch_health(i);
    if (health != dtp::PortHealth::kHealthy) ++unhealthy_at_end;
    std::printf("  %s [%s]: %s detect=%.1f us quarantines=%llu reinits=%llu "
                "attempts=%d\n",
                watchdog.watch_label(i).c_str(),
                chaos::fault_class_name(w->kind), dtp::to_string(health),
                latency_us, static_cast<unsigned long long>(ws.quarantines),
                static_cast<unsigned long long>(ws.reinits), ws.attempts);
  }
  for (const auto& v : result.violations) std::printf("  !! %s\n", v.to_string().c_str());
  print_sim_stats(run.sim());

  const double p50 = detection_us.empty() ? 0.0 : detection_us.percentile(0.50);
  const double p99 = detection_us.empty() ? 0.0 : detection_us.percentile(0.99);
  std::size_t detected_windows = 0;
  for (const auto& w : windows) detected_windows += w.detected ? 1 : 0;

  bool pass = benchutil::check("control run: zero false suspicions", control_suspects == 0);
  pass &= benchutil::check("control run: sentinel clean", control_clean);
  pass &= benchutil::check("every probe reported", run.engine().all_probes_done());
  std::uint64_t converged = 0, rows = 0;
  for (const auto& [cls, s] : report.by_class()) {
    converged += s.converged;
    rows += s.n;
  }
  pass &= benchutil::check("every recovery probe converged", rows == 4 && converged == rows);
  pass &= benchutil::check("all four gray classes detected", detected_windows == windows.size());
  pass &= benchutil::check("every victim port remediated (quarantine + re-INIT ladder)",
                remediated >= 4);
  pass &= benchutil::check("no suspicion outside a fault window", stray_suspects == 0);
  char gate[96];
  std::snprintf(gate, sizeof(gate), "detection p99 %.1f us <= %.1f us", p99,
                to_ns_f(detection_p99_ceiling) / 1000.0);
  pass &= benchutil::check(gate, p99 <= to_ns_f(detection_p99_ceiling) / 1000.0);
  pass &= benchutil::check("attempts stayed under the escalation ceiling",
                max_attempts <= wp.max_reinit_attempts);
  pass &= benchutil::check("no port disabled", watchdog.total_disables() == 0);
  pass &= benchutil::check("every victim port HEALTHY at end", unhealthy_at_end == 0);
  pass &= benchutil::check("sentinel clean (watchdog invariants armed)",
                result.clean() && result.sentinel_stats.watchdog_checks > 0);

  BenchJson json;
  json.add("seed", static_cast<std::uint64_t>(seed));
  json.add("check_period_us", to_ns_f(wp.check_period) / 1000.0);
  json.add("reinit_backoff_us", to_ns_f(wp.reinit_backoff) / 1000.0);
  json.add("control_false_suspects", control_suspects);
  json.add("detected_classes", static_cast<std::uint64_t>(detected_windows));
  json.add("remediated_ports", remediated);
  json.add("detection_p50_us", p50);
  json.add("detection_p99_us", p99);
  json.add("max_attempts", static_cast<std::uint64_t>(max_attempts));
  json.add("total_suspects", watchdog.total_suspects());
  json.add("total_quarantines", watchdog.total_quarantines());
  json.add("total_reinits", watchdog.total_reinits());
  json.add("total_disables", watchdog.total_disables());
  json.add("digest", result.digest.hex());
  json.add_raw("rows", report.rows_json());
  json.add("pass", pass);
  json.write(json_out_path(flags, "gray_recovery"));
  return pass ? 0 : 1;
}

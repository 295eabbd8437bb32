// Performance study of the scenario sweep layer (BENCH_sweep.json).
//
// One grid — the ablation_small preset x one default MPC policy x 16
// derived seeds — run through SweepRunner in rounds of three sweeps: one
// capped at a single lane, one bare at four, one at four with the timeline
// armed. Reports wall time and runs/s of each side's fastest sweep, verifies
// the determinism contract (the full JSONL export, every digit of every
// run, must be BIT-identical across thread counts), and derives the thread
// scaling ratio from the fastest 1-lane and 4-lane sweeps. Alternating the
// sides spreads drift (thermal, page cache, neighbours, the first sweep's
// cold start) over all of them, and the minimum is the sweep least
// disturbed by it: a single 1-lane vs 4-lane pair read x2.99-x3.90 on a
// shared 4-vCPU VM and once fell below the floor.
//
// Honest reporting on small boxes: on a host with fewer than 4 hardware
// threads the lanes time-slice the same cores and the scaling ratio is
// scheduler noise, so `thread_scaling_ratio_min` is written as 0.0 (nothing
// to gate) instead of pretending. On a >= 4-core box the floor is 2.0 and
// tools/bench_check.py enforces ratio >= floor via its internal-constraint
// check.
//
// Timeline overhead gate: the fastest armed 4-lane sweep (the per-period
// telemetry timeline, GEOPLACE_TIMELINE, force-armed) against the fastest
// bare one measures what recording one TelemetryFrame per period costs the
// hot loop. Every sweep must leave the JSONL bit-identical. A ratio >= 1 is
// reported as "within noise": the armed side can only be faster by chance.
// The floor (timeline_overhead_ratio_min) is deliberately loose — recording
// must not halve throughput — and, like thread scaling, is only gated on
// >= 4-cpu hosts where the measurement is not scheduler noise.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "obs/manifest.hpp"
#include "obs/timeline.hpp"
#include "scenario/sweep.hpp"

int main() {
  // Size the global pool for the 4-lane run regardless of what the machine
  // reports (the pool is sized once, on first use).
  setenv("GEOPLACE_THREADS", "4", /*overwrite=*/0);
  const unsigned cpus = std::thread::hardware_concurrency();

  gp::scenario::SweepGrid grid;
  grid.scenarios = {gp::scenario::preset("ablation_small")};
  grid.policies = {gp::scenario::PolicySpec{}};  // default MPC (horizon 5, last/last)
  grid.num_seeds = 16;
  grid.base_seed = 1;

  auto sweep_at = [&grid](std::size_t threads) {
    gp::scenario::SweepOptions options;
    options.max_threads = threads;
    // Any cell that fails here leaves a replay bundle behind (CI uploads the
    // directory on a red run); a healthy sweep writes nothing.
    options.failures_dir = "sweep_failures";
    return gp::scenario::SweepRunner(grid, options).run();
  };

  // The leading manifest line records host facts (lane count among them),
  // so the determinism identity is checked on the stripped body — that is
  // the part that must not depend on GEOPLACE_THREADS. An empty body marks
  // a missing manifest line, which fails every comparison.
  const auto body_of = [](const gp::scenario::SweepResult& result) {
    std::ostringstream jsonl;
    result.write_jsonl(jsonl);
    return gp::obs::is_manifest_line(jsonl.str()) ? gp::obs::strip_manifest_lines(jsonl.str())
                                                  : std::string();
  };

  // Rounds of 1-lane, bare 4-lane and timeline-armed 4-lane sweeps; each
  // side keeps its fastest. Armed frames are recorded into the per-lane
  // rings but not dumped (no timelines_dir, no GEOPLACE_TIMELINE dump path),
  // so the armed side isolates the record-path cost. Neither the lane count
  // nor recording may perturb the results themselves.
  constexpr int kRounds = 5;
  gp::scenario::SweepResult result1, result4, result_tl;  // each side's fastest
  std::string body1;
  bool bit_identical = true;
  bool timeline_transparent = true;
  for (int round = 0; round < kRounds; ++round) {
    auto serial = sweep_at(1);
    auto bare = sweep_at(4);
    gp::obs::TimelineWriter::set_enabled(true);
    auto armed = sweep_at(4);
    gp::obs::TimelineWriter::set_enabled(false);
    if (round == 0) body1 = body_of(serial);
    bit_identical = bit_identical && !body1.empty() && body1 == body_of(serial) &&
                    body1 == body_of(bare);
    timeline_transparent = timeline_transparent && !body1.empty() && body1 == body_of(armed);
    if (round == 0 || serial.wall_ms < result1.wall_ms) result1 = std::move(serial);
    if (round == 0 || bare.wall_ms < result4.wall_ms) result4 = std::move(bare);
    if (round == 0 || armed.wall_ms < result_tl.wall_ms) result_tl = std::move(armed);
  }

  const double ratio =
      result1.runs_per_s > 0.0 ? result4.runs_per_s / result1.runs_per_s : 0.0;
  const bool scaling_gated = cpus >= 4;
  const double ratio_min = scaling_gated ? 2.0 : 0.0;
  const double timeline_ratio =
      result4.runs_per_s > 0.0 ? result_tl.runs_per_s / result4.runs_per_s : 0.0;
  const double timeline_ratio_min = scaling_gated ? 0.5 : 0.0;

  std::printf("# sweep: %zu runs (1 scenario x 1 policy x 16 seeds), cpus=%u\n",
              result1.runs.size(), cpus);
  std::printf("threads=1: %.1f ms, %.2f runs/s (fastest of %d alternating)\n", result1.wall_ms,
              result1.runs_per_s, kRounds);
  std::printf("threads=4: %.1f ms, %.2f runs/s (fastest of %d alternating)\n", result4.wall_ms,
              result4.runs_per_s, kRounds);
  std::printf("bit-identical JSONL across thread counts: %s\n",
              bit_identical ? "yes" : "NO");
  if (scaling_gated) {
    std::printf("thread scaling ratio: x%.2f (floor %.1f)\n", ratio, ratio_min);
  } else {
    std::printf("thread scaling ratio: x%.2f (n/a: cpus=%u < 4, not gated)\n", ratio, cpus);
  }
  char overhead[48] = "within noise";
  if (timeline_ratio < 1.0) {
    std::snprintf(overhead, sizeof(overhead), "x%.2f of disabled", timeline_ratio);
  }
  std::printf("timeline armed, fastest of %d alternating: %.1f ms vs %.1f ms bare (%s%s), "
              "results %s\n",
              kRounds, result_tl.wall_ms, result4.wall_ms, overhead,
              scaling_gated ? "" : ", not gated",
              timeline_transparent ? "identical" : "PERTURBED");

  std::FILE* json = std::fopen("BENCH_sweep.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"manifest\": %s,\n",
                 result1.manifest.to_json_object().c_str());
    std::fprintf(json, "  \"cpus\": %u,\n  \"runs\": %zu,\n", cpus, result1.runs.size());
    std::fprintf(json, "  \"threads1\": {\"wall_ms\": %.3f, \"runs_per_s\": %.3f},\n",
                 result1.wall_ms, result1.runs_per_s);
    std::fprintf(json, "  \"threads4\": {\"wall_ms\": %.3f, \"runs_per_s\": %.3f},\n",
                 result4.wall_ms, result4.runs_per_s);
    std::fprintf(json, "  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
    std::fprintf(json, "  \"thread_scaling_ratio\": %.3f,\n", ratio);
    std::fprintf(json, "  \"thread_scaling_ratio_min\": %.1f,\n", ratio_min);
    std::fprintf(json, "  \"timeline\": {\"wall_ms\": %.3f, \"runs_per_s\": %.3f},\n",
                 result_tl.wall_ms, result_tl.runs_per_s);
    std::fprintf(json, "  \"timeline_transparent\": %s,\n",
                 timeline_transparent ? "true" : "false");
    std::fprintf(json, "  \"timeline_overhead_ratio\": %.3f,\n", timeline_ratio);
    std::fprintf(json, "  \"timeline_overhead_ratio_min\": %.1f\n}\n", timeline_ratio_min);
    std::fclose(json);
  }

  const bool ok = bit_identical && timeline_transparent &&
                  (!scaling_gated ||
                   (ratio >= ratio_min && timeline_ratio >= timeline_ratio_min));
  std::printf("\n# determinism %s, timeline %s, scaling %s -- %s\n",
              bit_identical ? "holds" : "VIOLATED",
              timeline_transparent ? "transparent" : "PERTURBS RESULTS",
              scaling_gated ? (ratio >= ratio_min ? "meets floor" : "BELOW FLOOR") : "n/a",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

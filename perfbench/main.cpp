// wire2verdict — the repository's end-to-end benchmark.
//
//   wire2verdict --workload ce1-ingest|ce1-detect|ce1-wire --seed N
//                --seconds S --trace 0|1 [--spans-out FILE]
//
// Drives the product path `ixpd --listen` runs — sFlow wire bytes → engine
// wire pool (or netio::UdpListener) → runtime::Engine (in-place decode and
// route → collect → merge → score) → core::LiveDetector — on a seeded,
// attack-bearing IXP-CE1 stream with blackholes and BGP updates
// (feed.hpp), with ixpd's --listen engine defaults and one shard.
//
// One run:
//   1. set-up, repeated kSetupRepeats times (setup_s is the median):
//      generate and encode the replay span, build detector, engine and
//      wire pool (and, for ce1-wire, the listener); then pin the threads
//      (Placement);
//   2. warm-up, closed loop and in-process (the detector's collection day,
//      or one pass that warms the engine), then the measured window:
//      closed-loop pushes into pooled slots for --seconds (ce1-ingest,
//      ce1-detect), or the open-loop sender's schedule of rate x --seconds
//      datagrams over loopback UDP (ce1-wire);
//   3. checks, outside the timed window: the verdict stream (every
//      detection, and every minute's flow count and digest) must equal the
//      single-threaded reference's, and the conservation identities must
//      hold. Any failure prints the result with "correct": false and exits 1;
//   4. --trace 1 adds the traced layer replay (replay.hpp) and reports the
//      per-layer metrics instead of the end-to-end ones.
//
// Every time is taken with this program's own steady clock: throughput from
// the minute sink's return stamps over the window after warm-up, never from
// EngineSnapshot::wall_seconds (whose clock starts before the engine's pool
// is built).

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "feed.hpp"
#include "netio/listener.hpp"
#include "replay.hpp"
#include "sender.hpp"
#include "spans.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupRepeats = 5;
/// Closed-loop window: the in-process producer pushes a datagram of minute M
/// only once the minute sink has returned for minute M - kInFlightMinutes.
/// Enough outstanding minutes to keep every stage busy (a 512-event input
/// batch spans ~14 minutes at 1:10); unbounded, ce1-detect backs ~2000
/// minutes up in the merge queue and every run ends with a ~10 s drain.
/// It also sets the closed-loop workloads' c2v (see the c2v samples).
constexpr std::uint32_t kInFlightMinutes = 128;
/// sysUptime is 32-bit milliseconds: stream minutes stay below 2^32 / 60000.
constexpr std::uint32_t kLastStreamMinute = 71'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// VmRSS / VmHWM of this process in KiB (0 when unreadable).
std::uint64_t proc_status_kib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':') {
      return std::stoull(line.substr(length + 1));
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS (Linux clear_refs "5").
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile q of `samples` taken per consecutive slice of at least
/// kSliceSamples samples, then the median over slices: a host stall inside
/// one slice cannot set the run's tail. With fewer samples it is the plain
/// quantile.
constexpr std::size_t kSliceSamples = 1000;
double sliced_quantile(const std::vector<double>& samples, double q) {
  const std::size_t slices = std::max<std::size_t>(1, samples.size() / kSliceSamples);
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < slices; ++k) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(k * samples.size() / slices);
    const auto end =
        samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * samples.size() / slices);
    per_slice.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return quantile(per_slice, 0.5);
}

double stage_busy(const runtime::EngineSnapshot& snap,
                  std::initializer_list<const char*> names) {
  double busy = 0.0;
  for (const auto& stage : snap.stages) {
    for (const char* name : names) {
      if (stage.name == name) busy += stage.busy_seconds;
    }
  }
  return busy;
}

std::uint64_t stage_out(const runtime::EngineSnapshot& snap, const char* name) {
  for (const auto& stage : snap.stages) {
    if (stage.name == name) return stage.items_out;
  }
  return 0;
}

std::uint64_t stage_highwater(const runtime::EngineSnapshot& snap,
                              std::initializer_list<const char*> names) {
  std::uint64_t highwater = 0;
  for (const auto& stage : snap.stages) {
    for (const char* name : names) {
      if (stage.name == name) highwater = std::max(highwater, stage.queue_highwater);
    }
  }
  return highwater;
}

/// Thread ids of this process, ascending.
std::vector<int> thread_ids() {
  std::vector<int> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ids.push_back(std::stoi(entry->d_name));
    }
    closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// CPU placement of the end-to-end run. ixpd's --listen engine runs four
/// stage threads that spin (with yield) when idle: decode, one collect
/// shard, merge and score. With the producer that is five threads on four
/// CPUs, and on ce1-ingest the scheduler's placement, not the code, set the
/// throughput (runs split 2.3M / 3.0M flows/s, level shifts within a run).
/// So every heavy thread gets a CPU of its own: the producer (on ce1-wire
/// the listener and the sender) shares the first CPU with merge, the
/// lightest stage on every workload; collect, decode and score take the
/// next three. Engine threads are told apart by creation order, which is
/// tid order: collect shards, merge, decode, score.
class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(static_cast<int>(cpu));
    }
  }

  /// Pins the calling thread and `engine_threads` (creation order);
  /// returns the placement, or why nothing was pinned.
  std::string pin(const std::vector<int>& engine_threads) const {
    if (cpus_.size() < 4) return "unpinned (fewer than 4 CPUs allowed)";
    if (engine_threads.size() != 4) {
      return "unpinned (" + std::to_string(engine_threads.size()) +
             " engine threads, expected collect, merge, decode, score)";
    }
    const int cpu[] = {cpus_[1], cpus_[0], cpus_[2], cpus_[3]};
    bool ok = pin_thread(0, cpus_[0]);
    for (std::size_t k = 0; k < 4; ++k) ok = pin_thread(engine_threads[k], cpu[k]) && ok;
    if (!ok) return "unpinned (sched_setaffinity failed)";
    return "producer+merge=cpu" + std::to_string(cpus_[0]) + " collect=cpu" +
           std::to_string(cpus_[1]) + " decode=cpu" + std::to_string(cpus_[2]) +
           " score=cpu" + std::to_string(cpus_[3]);
  }

 private:
  static bool pin_thread(int tid, int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<std::size_t>(cpu), &set);
    return sched_setaffinity(tid, sizeof(set), &set) == 0;
  }

  std::vector<int> cpus_;
};

/// Everything the end-to-end run observed.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> setup_samples;
  double rss_mb = 0.0;
  std::uint64_t pushed = 0;          ///< datagrams pushed in-process
  std::uint64_t sent = 0;            ///< datagrams sent over UDP (ce1-wire)
  // Minute sink log (score thread; read after finish).
  std::vector<MinuteRecord> minutes;
  std::vector<std::uint64_t> done_ns;
  std::vector<std::string> detections;
  /// First push (sender: due) time of each stream minute (index = minute).
  std::vector<std::uint64_t> first_due_ns;
  // Window.
  std::uint64_t window_start_ns = 0;
  std::uint64_t end_ns = 0;
  runtime::EngineSnapshot at_window;
  runtime::EngineSnapshot at_end;
  // Wire only.
  netio::ListenerSnapshot listen;
  std::vector<std::uint64_t> late_ns;
  std::string error;

  /// Length of the stream prefix the run offered.
  [[nodiscard]] std::uint64_t stream_datagrams() const noexcept {
    return pushed + sent;
  }
};

void note_first_due(EndToEnd& e2e, std::uint32_t minute, std::uint64_t t) {
  if (e2e.first_due_ns.size() <= minute) e2e.first_due_ns.resize(minute + 1, 0);
  if (e2e.first_due_ns[minute] == 0) e2e.first_due_ns[minute] = t;
}

/// Copies one datagram into a pooled slot and pushes it; when the pool is
/// dry (counted by the engine as pool_exhausted) the datagram is pushed as a
/// copy, as UdpListener does.
void push_datagram(runtime::Engine& engine, std::span<const std::uint8_t> bytes) {
  runtime::WireSlot slot = engine.wire_pool()->try_acquire();
  if (slot) {
    std::memcpy(slot.data(), bytes.data(), bytes.size());
    slot.set_size(bytes.size());
    engine.push_wire(std::move(slot));
  } else {
    engine.push_wire(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  }
}

EndToEnd run_end_to_end(const WorkloadConfig& w, const Args& args,
                        std::unique_ptr<Trace>& trace_out) {
  EndToEnd e2e;
  std::unique_ptr<Trace> trace;
  std::unique_ptr<SpanCursor> cursor;
  std::unique_ptr<core::LiveDetector> detector;
  std::unique_ptr<runtime::Engine> engine;
  std::unique_ptr<netio::UdpListener> listener;
  std::uint64_t rss_base_kib = 0;
  const unsigned setup_threads = std::max(1U, std::thread::hardware_concurrency());
  const Placement placement;
  std::vector<int> engine_threads;

  // Highest minute the sink has returned for, +1 (0 = none yet).
  std::atomic<std::uint32_t> done_minutes{0};
  const auto sink = [&e2e, &detector, &done_minutes](
                        std::uint32_t minute, std::span<const net::FlowRecord> flows) {
    detector->ingest_minute(minute, flows);
    const bool scored = detector->ready() && !flows.empty();
    e2e.minutes.push_back({minute, static_cast<std::uint32_t>(flows.size()),
                           digest_flows(flows), scored});
    e2e.done_ns.push_back(now_ns());
    done_minutes.store(minute + 1, std::memory_order_release);
  };

  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    listener.reset();
    engine.reset();
    detector.reset();
    cursor.reset();
    trace.reset();
    const std::uint64_t t0 = now_ns();
    trace = std::make_unique<Trace>(build_trace(w, args.seed, setup_threads));
    cursor = std::make_unique<SpanCursor>(*trace);
    const std::uint64_t t1 = now_ns();
    if (repeat + 1 == kSetupRepeats) {
      if (!reset_peak_rss()) std::fprintf(stderr, "warning: cannot reset VmHWM\n");
      rss_base_kib = proc_status_kib("VmRSS");
    }
    const std::uint64_t t2 = now_ns();
    detector = std::make_unique<core::LiveDetector>(
        detector_config(w, args.seed), [&e2e](const core::Detection& detection) {
          e2e.detections.push_back(format_detection(detection));
        });
    const std::vector<int> before = thread_ids();
    engine = std::make_unique<runtime::Engine>(engine_config(w), sink);
    engine_threads.clear();
    for (const int id : thread_ids()) {
      if (!std::binary_search(before.begin(), before.end(), id)) engine_threads.push_back(id);
    }
    if (w.wire) {
      netio::ListenerConfig config;
      config.bind_address = "127.0.0.1";
      config.port = 0;
      config.batch_msgs = 32;  // ixpd --recv-batch default
      config.backend = netio::RecvBackend::kRecvmmsg;
      config.idle_stop_ms = 20'000;  // lost-FIN safety net
      runtime::Engine* raw_engine = engine.get();
      SpanCursor* raw_cursor = cursor.get();
      listener = std::make_unique<netio::UdpListener>(
          config, *engine, [raw_engine, raw_cursor](std::uint32_t minute) {
            raw_cursor->deliver_bgp(minute, [raw_engine](const bgp::UpdateMessage& u,
                                                         std::uint64_t now_ms) {
              raw_engine->push_bgp(u, now_ms);
            });
          });
    }
    const std::uint64_t t3 = now_ns();
    e2e.setup_samples.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9);
  }
  e2e.setup_s = quantile(e2e.setup_samples, 0.5);
  std::printf("placement: %s\n", placement.pin(engine_threads).c_str());
  std::fflush(stdout);
  e2e.minutes.reserve(1 << 16);
  e2e.done_ns.reserve(1 << 16);

  // --- warm-up: closed loop, in-process ------------------------------------
  runtime::Engine& eng = *engine;
  const auto push_bgp = [&eng](const bgp::UpdateMessage& u, std::uint64_t now_ms) {
    eng.push_bgp(u, now_ms);
  };
  std::vector<std::uint8_t> buffer(65536);
  const auto push_next = [&] {
    const std::uint64_t i = e2e.pushed++;
    const std::uint32_t minute = cursor->minute_of(i);
    while (done_minutes.load(std::memory_order_acquire) + kInFlightMinutes < minute) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    cursor->deliver_bgp(minute, push_bgp);
    const std::size_t size = cursor->copy(i, buffer.data());
    note_first_due(e2e, minute, now_ns());
    push_datagram(eng, std::span<const std::uint8_t>(buffer.data(), size));
  };
  while (cursor->minute_of(e2e.pushed) < w.window_min) push_next();

  // --- measured window -----------------------------------------------------
  if (!w.wire) {
    e2e.window_start_ns = now_ns();
    e2e.at_window = eng.stats();
    const auto deadline =
        e2e.window_start_ns + static_cast<std::uint64_t>(args.seconds * 1e9);
    // Stop at the first minute boundary after the deadline, so the last
    // minute is whole, or before sysUptime (32-bit milliseconds) would wrap.
    for (;;) {
      push_next();
      const std::uint32_t next_minute = cursor->minute_of(e2e.pushed);
      if (next_minute != cursor->minute_of(e2e.pushed - 1) &&
          (now_ns() >= deadline || next_minute >= kLastStreamMinute)) {
        break;
      }
    }
    eng.finish();
  } else {
    // Let the warm-up backlog drain, so the sender starts on an idle
    // engine: wait until the sink has been quiet for 100 ms.
    std::size_t seen = 0;
    std::uint64_t quiet_since = now_ns();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const std::size_t done = eng.stats().minutes_merged;
      if (done != seen) {
        seen = done;
        quiet_since = now_ns();
      } else if (now_ns() - quiet_since > 100'000'000ULL) {
        break;
      }
    }
    const auto datagrams =
        static_cast<std::uint64_t>(std::llround(w.rate * args.seconds));
    OpenLoopSender sender(*trace, e2e.pushed, w.rate, datagrams, args.seed);
    const std::uint16_t port = listener->port();
    e2e.window_start_ns = now_ns();
    e2e.at_window = eng.stats();
    const std::uint64_t start_ns = e2e.window_start_ns + 20'000'000ULL;
    std::thread send_thread([&sender, &e2e, port, start_ns] {
      try {
        sender.run(port, start_ns);
      } catch (const std::exception& error) {
        e2e.error = std::string("sender: ") + error.what();
      }
    });
    listener->run();  // returns at the FIN sentinel, engine finished
    send_thread.join();
    e2e.listen = listener->stats();
    if (!e2e.listen.fin_seen) {
      eng.finish();
      if (e2e.error.empty()) e2e.error = "listener stopped without FIN";
    }
    e2e.sent = sender.sent();
    e2e.late_ns = sender.late_ns();
    for (std::uint64_t k = 0; k < e2e.sent; ++k) {
      note_first_due(e2e, cursor->minute_of(e2e.pushed + k), sender.due_ns(k));
    }
  }
  e2e.end_ns = now_ns();
  e2e.at_end = eng.stats();
  const std::uint64_t hwm_kib = proc_status_kib("VmHWM");
  e2e.rss_mb = static_cast<double>(hwm_kib - std::min(hwm_kib, rss_base_kib)) / 1024.0;

  listener.reset();
  engine.reset();
  detector.reset();
  trace_out = std::move(trace);
  return e2e;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or basis, for the human-readable table
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-34s %18s  %-8s %s\n", "metric", "value", "unit", "basis");
  for (const auto& m : metrics) {
    std::printf("%-34s %18.6f  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

std::string count_note(std::size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

int run(const Args& args) {
  const WorkloadConfig& w = workload_by_name(args.workload);
  util::set_training_threads(kLearnThreads);

  std::printf("wire2verdict: workload=%s seed=%llu seconds=%.3f trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const runtime::EngineConfig engine = engine_config(w);
  std::printf("config: profile=IXP-CE1 scenario_seed=%llu sampling=1/%u "
              "span_min=%u warmup_min=%u detects=%d retrain_min=%u "
              "training_window_min=%u shards=%zu batch=%zu queue=%zu "
              "pool_slots=%zu slot_bytes=%zu policy=block learn_threads=%u "
              "in_flight_min=%u feed=%s rate=%.0f/s\n",
              static_cast<unsigned long long>(kScenarioSeed), w.sampling,
              w.span_min, w.window_min, w.detects,
              w.retrain_min, w.training_window_min, engine.shards,
              engine.batch_records, engine.queue_capacity,
              engine.wire_pool_slots, engine.wire_slot_bytes, kLearnThreads,
              kInFlightMinutes,
              w.wire ? "in-process warm-up, then udp-loopback-open-loop"
                     : "in-process-closed-loop",
              w.rate);
  std::printf("build: type=%s flags=\"%s\" nproc=%u simd=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              std::thread::hardware_concurrency(),
              util::simd_level_name(util::simd_level()));
  std::fflush(stdout);

  std::unique_ptr<Trace> trace;
  EndToEnd e2e = run_end_to_end(w, args, trace);

  Checks checks;
  checks.expect(e2e.error.empty(), e2e.error);
  const runtime::EngineSnapshot& end = e2e.at_end;

  // --- failures and conservation ----------------------------------------
  const std::uint64_t attempted_datagrams = e2e.stream_datagrams();
  std::uint64_t lost = end.decode_errors + end.input_drops + end.late_drops;
  if (w.wire) {
    lost += e2e.listen.kernel_drops;
    checks.expect(e2e.listen.fin_seen && e2e.listen.expected_datagrams == e2e.sent,
                  "FIN sentinel carries the sender's total");
    checks.expect(e2e.sent == e2e.listen.stage.items_in + e2e.listen.kernel_drops,
                  "sent == received + kernel drops");
    checks.expect(e2e.pushed + e2e.listen.stage.items_in ==
                      end.datagrams + end.decode_errors + e2e.listen.stage.drops,
                  "received == datagrams + decode_errors + ring_drops");
  } else {
    checks.expect(e2e.pushed == end.datagrams + end.decode_errors + end.input_drops,
                  "pushed == datagrams + decode_errors + ring_drops");
  }
  std::uint64_t sink_flows = 0;
  for (const auto& m : e2e.minutes) sink_flows += m.flows;
  checks.expect(sink_flows == end.flows_out, "flows into the sink == flows scored");
  checks.expect(sink_flows == stage_out(end, "collect"),
                "flows into the sink == flows merged");
  checks.expect(e2e.minutes.size() == end.minutes_merged,
                "minutes into the sink == minutes merged");

  std::uint64_t window_minutes = 0;
  std::uint64_t unscored = 0;
  for (const auto& m : e2e.minutes) {
    if (m.minute < w.window_min) continue;
    ++window_minutes;
    if (w.detects && !m.scored) ++unscored;
  }
  const std::uint64_t attempted = attempted_datagrams + (w.detects ? window_minutes : 0);
  const std::uint64_t failed = lost + unscored;

  // --- throughput and minute-close -> verdict ----------------------------
  // Both are taken over the window's whole span passes only, so every run
  // measures the same traffic mix whatever its length: flows_per_s is their
  // flows over the time from the last warm-up minute's verdict to the last
  // whole pass's, and c2v samples every minute they hold.
  const std::uint32_t last_minute = e2e.minutes.empty() ? 0 : e2e.minutes.back().minute;
  const std::uint32_t passes =
      last_minute + 1 > w.window_min ? (last_minute + 1 - w.window_min) / w.span_min : 0;
  const std::uint32_t window_end = w.window_min + passes * w.span_min;
  std::uint64_t window_flows = 0;
  std::uint64_t window_from_ns = 0;
  std::uint64_t window_to_ns = 0;
  for (std::size_t i = 0; i < e2e.minutes.size(); ++i) {
    const std::uint32_t minute = e2e.minutes[i].minute;
    if (minute < w.window_min) window_from_ns = e2e.done_ns[i];
    if (minute < w.window_min || minute >= window_end) continue;
    window_flows += e2e.minutes[i].flows;
    window_to_ns = e2e.done_ns[i];
  }
  const double window_s =
      window_to_ns > window_from_ns && window_from_ns != 0
          ? static_cast<double>(window_to_ns - window_from_ns) * 1e-9
          : 0.0;
  const double flows_per_s =
      window_s > 0.0 ? static_cast<double>(window_flows) / window_s : 0.0;
  checks.expect(passes > 0 && window_s > 0.0,
                "the measured window holds a whole span pass");

  // The clock starts at the due time of the first datagram whose minute
  // exceeds M + reorder slack. Open loop (ce1-wire) that is the sender's
  // schedule. Closed loop it is the instant the in-flight window admitted
  // that datagram's minute m — the sink's return for minute
  // m - 1 - kInFlightMinutes — however long the producer then waited on a
  // full input queue. Closed-loop c2v is therefore the sink's time for the
  // ~kInFlightMinutes minutes in flight: the window over throughput, not a
  // latency (reported because every workload reports every metric).
  constexpr std::uint32_t kSlack = 1;  // Collector::Config::reorder_slack_min
  const auto admitted_ns = [&e2e](std::uint32_t m) -> std::uint64_t {
    if (m <= kInFlightMinutes + 1) return 0;
    const auto it = std::lower_bound(
        e2e.minutes.begin(), e2e.minutes.end(), m - 1 - kInFlightMinutes,
        [](const MinuteRecord& r, std::uint32_t v) { return r.minute < v; });
    if (it == e2e.minutes.end()) return 0;
    return e2e.done_ns[static_cast<std::size_t>(it - e2e.minutes.begin())];
  };
  std::vector<double> c2v_ms;
  for (std::size_t i = 0; i < e2e.minutes.size(); ++i) {
    const std::uint32_t minute = e2e.minutes[i].minute;
    if (minute < w.window_min || minute >= window_end) continue;
    const std::uint32_t closer = minute + kSlack + 1;
    std::uint64_t closed_at = 0;
    for (std::uint32_t m = closer; m < e2e.first_due_ns.size(); ++m) {
      if (e2e.first_due_ns[m] != 0) {
        closed_at = w.wire ? e2e.first_due_ns[m] : admitted_ns(m);
        break;
      }
    }
    if (closed_at == 0 || e2e.done_ns[i] < closed_at) continue;  // closed by finish
    c2v_ms.push_back(static_cast<double>(e2e.done_ns[i] - closed_at) * 1e-6);
  }
  checks.expect(!c2v_ms.empty(), "minute-close -> verdict samples exist");

  // --- reference -----------------------------------------------------------
  // Learning workloads replay the whole stream: the detector's state carries
  // from minute to minute. ce1-ingest trains nothing, and its stream is
  // periodic by construction (pass k is pass 1 shifted by k - 1 spans), so
  // the reference replays two passes and every later minute must equal its
  // pass-1 counterpart, shifted.
  const std::uint64_t per_pass = trace->datagrams_per_pass();
  const bool periodic = !w.detects;
  const std::uint64_t reference_datagrams =
      periodic ? std::min(attempted_datagrams, 2 * per_pass) : attempted_datagrams;
  const ReplayOutput reference =
      run_reference(*trace, reference_datagrams, w.span_min, periodic ? w.span_min : 0);
  checks.expect(reference.decode_errors == 0, "reference decoded every datagram");
  checks.expect(reference.detections == e2e.detections,
                "detections equal the single-threaded reference's");
  if (periodic) {
    bool match = e2e.minutes.size() >= reference.minutes.size();
    for (std::size_t i = 0; match && i < e2e.minutes.size(); ++i) {
      const MinuteRecord& got = e2e.minutes[i];
      if (i < reference.minutes.size()) {
        match = got == reference.minutes[i];
        continue;
      }
      const std::uint32_t offset = got.minute % w.span_min;
      const std::uint32_t shift = got.minute - w.span_min - offset;
      const auto& flows = reference.kept[offset];
      match = got.minute >= 2 * w.span_min && !got.scored &&
              got.flows == flows.size() && got.digest == digest_flows(flows, shift);
    }
    checks.expect(match, "per-minute flows and digests equal the reference's "
                         "(later passes: the pass-1 reference, shifted)");
  } else {
    checks.expect(reference.minutes == e2e.minutes,
                  "per-minute flows and digests equal the reference's");
  }
  std::printf("\nverdicts: %zu detections, %zu minutes (%llu in window), "
              "%llu flows; pool exhausted %llu times; reference %.2f s\n",
              e2e.detections.size(), e2e.minutes.size(),
              static_cast<unsigned long long>(window_minutes),
              static_cast<unsigned long long>(sink_flows),
              static_cast<unsigned long long>(end.pool_exhausted), reference.wall_s);

  std::vector<Metric> metrics;
  const double window_wall_s =
      static_cast<double>(e2e.end_ns - e2e.window_start_ns) * 1e-9;
  if (!args.trace) {
    metrics.push_back({"flows_per_s", flows_per_s, "flows/s",
                       std::to_string(window_flows) + " flows in " + std::to_string(passes) +
                           " passes, " + std::to_string(window_s) + " s"});
    const std::string c2v_basis =
        count_note(c2v_ms.size(), "minute closes") + ", median of " +
        std::to_string(std::max<std::size_t>(1, c2v_ms.size() / kSliceSamples)) +
        " slices" + (w.wire ? "" : "; closed loop: in-flight backlog drain, not a latency");
    metrics.push_back({"c2v_p50_ms", sliced_quantile(c2v_ms, 0.5), "ms", c2v_basis});
    metrics.push_back({"c2v_p99_ms", sliced_quantile(c2v_ms, 0.99), "ms", c2v_basis});
    metrics.push_back(
        {"success_frac",
         attempted == 0 ? 0.0
                        : 1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio", std::to_string(failed) + " failed of " + std::to_string(attempted)});
    metrics.push_back({"setup_s", e2e.setup_s, "s",
                       count_note(e2e.setup_samples.size(), "set-ups, median")});
    metrics.push_back({"rss_mb", e2e.rss_mb, "MB", "VmHWM - VmRSS before engine"});
  } else {
    // --- traced layer replay ---------------------------------------------
    // The periodic ce1-ingest stream is traced over its first kTracedPasses
    // passes (the unit costs do not change from pass to pass), against an
    // untraced replay of the same prefix for the overhead figure.
    constexpr std::uint64_t kTracedPasses = 24;
    const std::uint64_t traced_datagrams =
        periodic ? std::min(attempted_datagrams, kTracedPasses * per_pass)
                 : attempted_datagrams;
    const double untraced_wall_s =
        traced_datagrams == reference_datagrams
            ? reference.wall_s
            : run_reference(*trace, traced_datagrams).wall_s;
    SpanRecorder spans(1U << 20);
    LayerCounts counts;
    const ReplayOutput traced = run_traced(*trace, traced_datagrams, spans, counts);
    checks.expect(traced.detections == e2e.detections,
                  "traced replay detections equal the end-to-end run's");
    const std::vector<MinuteRecord> e2e_prefix(
        e2e.minutes.begin(),
        e2e.minutes.begin() +
            static_cast<std::ptrdiff_t>(std::min(e2e.minutes.size(), traced.minutes.size())));
    checks.expect(traced.minutes == e2e_prefix,
                  "traced replay minutes equal the end-to-end run's");
    if (!args.spans_out.empty() && !spans.write_tsv(args.spans_out)) {
      std::fprintf(stderr, "warning: cannot write %s\n", args.spans_out.c_str());
    }
    const auto self = spans.self_ns();
    const auto calls = spans.calls();
    const auto self_of = [&self](Layer layer) {
      return self[static_cast<std::size_t>(layer)];
    };
    const auto per = [](double ns, std::uint64_t n) {
      return n == 0 ? 0.0 : ns / static_cast<double>(n);
    };
    const double traced_ns = traced.wall_s * 1e9;

    std::printf("\nper-layer self time, traced single-threaded replay "
                "(%.3f s wall, %zu spans):\n",
                traced.wall_s, spans.spans().size());
    std::printf("  %-22s %10s %10s %8s  %s\n", "layer", "calls", "self_s",
                "share", "unit cost");
    const struct {
      Layer layer;
      std::uint64_t items;
      const char* unit;
    } rows[] = {
        {Layer::kBench, 0, ""},
        {Layer::kDecode, counts.samples, "ns/sample"},
        {Layer::kCollect, counts.samples, "ns/sample"},
        {Layer::kSort, counts.merged_flows, "ns/flow"},
        {Layer::kDetector, calls[static_cast<std::size_t>(Layer::kDetector)], "ns/minute"},
        {Layer::kBalance, counts.balance_flows, "ns/flow"},
        {Layer::kMine, counts.retrains, "ns/retrain"},
        {Layer::kAggregateTrain, counts.retrains, "ns/retrain"},
        {Layer::kTrain, counts.trains, "ns/fit"},
        {Layer::kAggregate, counts.live_flows, "ns/flow"},
        {Layer::kScore, counts.records_scored, "ns/record"},
    };
    for (const auto& row : rows) {
      const double ns = self_of(row.layer);
      std::printf("  %-22s %10llu %10.4f %7.2f%%  %.1f %s\n", layer_name(row.layer),
                  static_cast<unsigned long long>(calls[static_cast<std::size_t>(row.layer)]),
                  ns * 1e-9, 100.0 * ns / traced_ns, per(ns, row.items), row.unit);
    }

    // Engine stage utilization over the measured window (end-to-end run).
    const auto util = [&](std::initializer_list<const char*> names) {
      return window_wall_s <= 0.0
                 ? 0.0
                 : (stage_busy(end, names) - stage_busy(e2e.at_window, names)) /
                       window_wall_s;
    };
    const double u_decode = util({"decode", "route", "ingest"});
    const double u_collect = util({"collect"});
    const double u_merge = util({"merge"});
    const double u_score = util({"score"});
    std::printf("\nengine stage utilization over the %.3f s window: decode+route "
                "%.1f%% collect %.1f%% merge %.1f%% (includes time blocked on "
                "the score ring) score %.1f%%\n",
                window_wall_s, 100 * u_decode, 100 * u_collect, 100 * u_merge,
                100 * u_score);

    std::vector<double> minute_ns = counts.detector_minute_ns;
    std::vector<double> late_ms;
    late_ms.reserve(e2e.late_ns.size());
    for (const std::uint64_t ns : e2e.late_ns) late_ms.push_back(static_cast<double>(ns) * 1e-6);
    const double listen_util =
        window_wall_s <= 0.0 ? 0.0 : e2e.listen.stage.busy_seconds / window_wall_s;

    metrics.push_back({"net.decode_ns_per_sample", per(self_of(Layer::kDecode), counts.samples),
                       "ns", count_note(counts.samples, "samples")});
    metrics.push_back({"core.collect_ns_per_sample", per(self_of(Layer::kCollect), counts.samples),
                       "ns", count_note(counts.samples, "samples")});
    metrics.push_back({"runtime.decode.util", u_decode, "ratio", "engine, window"});
    metrics.push_back({"runtime.collect.util", u_collect, "ratio", "engine, window"});
    metrics.push_back({"runtime.merge.util", u_merge, "ratio", "engine, window"});
    metrics.push_back({"runtime.score.util", u_score, "ratio", "engine, window"});
    metrics.push_back({"runtime.input.q_highwater",
                       static_cast<double>(stage_highwater(end, {"decode", "ingest"})),
                       "events", "engine, whole run"});
    metrics.push_back({"core.balance_ns_per_flow", per(self_of(Layer::kBalance), counts.balance_flows),
                       "ns", count_note(counts.balance_flows, "flows")});
    metrics.push_back({"core.aggregate_ns_per_flow", per(self_of(Layer::kAggregate), counts.live_flows),
                       "ns", count_note(counts.live_flows, "flows")});
    metrics.push_back({"ml.score_ns_per_record", per(self_of(Layer::kScore), counts.records_scored),
                       "ns", count_note(counts.records_scored, "records")});
    metrics.push_back({"core.detector_minute_p50_ms", quantile(minute_ns, 0.5) * 1e-6, "ms",
                       count_note(minute_ns.size(), "minutes")});
    metrics.push_back({"core.detector_minute_p99_ms", quantile(minute_ns, 0.99) * 1e-6, "ms",
                       count_note(minute_ns.size(), "minutes")});
    metrics.push_back({"core.scored_useful_frac",
                       counts.records_scored == 0
                           ? 0.0
                           : static_cast<double>(counts.records_useful) /
                                 static_cast<double>(counts.records_scored),
                       "ratio",
                       std::to_string(counts.records_useful) + " of " +
                           std::to_string(counts.records_scored) + " records"});
    metrics.push_back({"arm.mine_s_per_retrain", per(self_of(Layer::kMine), counts.retrains) * 1e-9,
                       "s", count_note(counts.retrains, "retrains")});
    metrics.push_back({"core.aggregate_train_s_per_retrain",
                       per(self_of(Layer::kAggregateTrain), counts.retrains) * 1e-9, "s",
                       count_note(counts.retrains, "retrains")});
    metrics.push_back({"ml.train_s_per_retrain", per(self_of(Layer::kTrain), counts.trains) * 1e-9,
                       "s", count_note(counts.trains, "fits")});
    metrics.push_back({"netio.kernel_drops", static_cast<double>(e2e.listen.kernel_drops),
                       "count", w.wire ? "listener" : "no listener"});
    metrics.push_back({"netio.pool_fallbacks", static_cast<double>(e2e.listen.pool_fallbacks),
                       "count", w.wire ? "listener" : "no listener"});
    metrics.push_back({"netio.recv_batch_mean",
                       e2e.listen.recv_batches == 0
                           ? 0.0
                           : static_cast<double>(e2e.listen.stage.items_in) /
                                 static_cast<double>(e2e.listen.recv_batches),
                       "datagrams", count_note(e2e.listen.recv_batches, "batches")});
    metrics.push_back({"netio.listen.util", listen_util, "ratio", "listener, window"});
    metrics.push_back({"runtime.pool_exhausted", static_cast<double>(end.pool_exhausted),
                       "count", "engine wire pool, whole run"});
    metrics.push_back({"bench.sender_late_p99_ms", quantile(late_ms, 0.99), "ms",
                       count_note(late_ms.size(), "sends")});
    metrics.push_back({"failed_frac",
                       attempted == 0 ? 0.0
                                      : static_cast<double>(failed) /
                                            static_cast<double>(attempted),
                       "ratio", std::to_string(failed) + " of " + std::to_string(attempted)});
    metrics.push_back({"trace.coverage", spans.root_ns() / traced_ns, "ratio",
                       "span self times / traced wall"});
    metrics.push_back({"trace.overhead_frac", traced.wall_s / untraced_wall_s - 1.0,
                       "ratio", "traced wall vs untraced replay wall"});
  }

  const bool correct = checks.ok() && failed == 0;
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wire2verdict: %s\n", error.what());
    return 2;
  }
}

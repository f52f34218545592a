/**
 * @file
 * perfbench harness: runs one generated workload config through
 * json::parse -> ss::Simulation -> Simulation::run(), the same calls the
 * supersim CLI makes, and prints one JSON object on stdout with host
 * timings, engine counters and the simulated-result record that
 * perfbench/run.py checks against its stored reference.
 *
 *   perfbench_harness --config FILE --seconds S [--min-reps N]
 *       [--traced] [--variant-threads N] [--variant-legacy]
 *
 * Timed mode runs the workload repeatedly until the next run would end
 * past S seconds, and at least N times. Before each run it times a fixed
 * calibration kernel (and once more after the last run), then builds and
 * drops two extra Simulations, so that set-up time is sampled across
 * the whole window. Every run's simulated record must be identical.
 *
 * --traced spends half of S on the timed runs, then a quarter on runs
 * with observability counters on (no trace or series file) and SIGPROF
 * sampling of Simulation::run(); spans around the harness's own calls
 * and the sampled program counters are printed with the rest. The
 * variants then run the same config once more with simulator.threads =
 * N, or with no threads/partitions keys (the legacy serial loop).
 *
 * A guard thread ends the process with exit code 3 when its resident
 * memory passes 4 GiB or one run passes 60 s.
 */
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/version.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "sim/builder.h"
#include "stats/latency_sampler.h"

#ifndef SS_PERFBENCH_BUILD_TYPE
#define SS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using ss::json::Value;

constexpr int kUsageExit = 2;
constexpr int kGuardExit = 3;
constexpr std::uint64_t kRssLimitBytes = std::uint64_t{4} << 30;
constexpr double kWallLimitS = 60.0;
/** Extra Simulations built and dropped before each timed run. */
constexpr int kSetupSamplesPerRun = 2;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/** Ends the process when resident memory or one run's wall time passes
 *  its ceiling: a load past saturation grows without bound. */
class Guard {
  public:
    Guard(std::uint64_t rss_limit_bytes, double wall_limit_s)
        : rssLimit_(rss_limit_bytes), wallLimit_(wall_limit_s),
          thread_([this] { loop(); })
    {
    }

    ~Guard()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        thread_.join();
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    /** Runs the guard's wall clock for one run while it is alive. */
    class Armed {
      public:
        explicit Armed(Guard* guard) : guard_(guard)
        {
            guard_->armedAt_.store(Clock::now().time_since_epoch().count());
        }
        ~Armed() { guard_->armedAt_.store(0); }

        Armed(const Armed&) = delete;
        Armed& operator=(const Armed&) = delete;

      private:
        Guard* guard_;
    };

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, std::chrono::milliseconds(20),
                               [this] { return stop_; })) {
            std::uint64_t rss = residentBytes();
            if (rss > rssLimit_) {
                std::fprintf(stderr,
                             "perfbench guard: resident memory %llu MB "
                             "passed the %llu MB ceiling\n",
                             static_cast<unsigned long long>(rss >> 20),
                             static_cast<unsigned long long>(rssLimit_ >>
                                                             20));
                std::_Exit(kGuardExit);
            }
            Clock::rep armed = armedAt_.load();
            if (armed != 0 &&
                secondsSince(Clock::time_point(Clock::duration(armed))) >
                    wallLimit_) {
                std::fprintf(stderr,
                             "perfbench guard: one run passed the %g s "
                             "wall ceiling\n",
                             wallLimit_);
                std::_Exit(kGuardExit);
            }
        }
    }

    const std::uint64_t rssLimit_;
    const double wallLimit_;
    std::atomic<Clock::rep> armedAt_{0};
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

// ----- host-speed calibration ------------------------------------------

/** A fixed host workload shaped like the simulator's inner loop: a
 *  binary-heap event queue whose timestamps come from a pointer chase
 *  through a 4 MB random cycle. It is compiled into the harness, not the
 *  library, so changes to the simulator do not change it. On a shared
 *  host the speed of memory-bound code drifts by tens of percent over
 *  minutes; this kernel's time drifts with the simulator's, so run.py
 *  scales each repetition's host times by the kernel's times just
 *  before and just after it. */
class Calibration {
  public:
    Calibration() : next_(kEntries)
    {
        // Sattolo's shuffle: one cycle through every entry.
        for (std::uint32_t i = 0; i < kEntries; ++i) {
            next_[i] = i;
        }
        std::uint64_t state = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = kEntries - 1; i > 0; --i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            std::uint32_t j = static_cast<std::uint32_t>((state >> 33) % i);
            std::swap(next_[i], next_[j]);
        }
        heap_.reserve(kHeapSize + 1);
    }

    /** Host seconds of one pass of the kernel. */
    double
    measure()
    {
        Clock::time_point t0 = Clock::now();
        heap_.clear();
        std::uint32_t at = 0;
        std::uint64_t now = 0;
        for (std::uint32_t step = 0; step < kSteps; ++step) {
            at = next_[at];
            heap_.push_back(now + (at & 1023u));
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
            if (heap_.size() > kHeapSize) {
                std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
                now = heap_.back();
                heap_.pop_back();
            }
        }
        double seconds = secondsSince(t0);
        sink_ = sink_ + now + at;
        return seconds;
    }

  private:
    static constexpr std::uint32_t kEntries = 1u << 20;
    static constexpr std::uint32_t kSteps = 400000;
    static constexpr std::size_t kHeapSize = 4096;

    std::vector<std::uint32_t> next_;
    std::vector<std::uint64_t> heap_;
    volatile std::uint64_t sink_ = 0;
};

// ----- SIGPROF sampling ------------------------------------------------

constexpr std::size_t kMaxSamples = 1 << 20;
std::uintptr_t gSamples[kMaxSamples];
std::atomic<std::size_t> gSampleCount{0};

void
onProfSignal(int, siginfo_t*, void* context)
{
    std::size_t slot = gSampleCount.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxSamples) {
        return;
    }
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    gSamples[slot] =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    gSamples[slot] = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    gSamples[slot] = 0;
#endif
}

/** Samples the program counter of whichever thread is on a CPU, once per
 *  millisecond of process CPU time. */
class Profiler {
  public:
    static constexpr long kIntervalUs = 1000;

    Profiler() { gSampleCount.store(0); }

    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /** Starts (or resumes) sampling; samples accumulate across calls. */
    void
    start()
    {
        struct sigaction action {};
        action.sa_sigaction = onProfSignal;
        action.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&action.sa_mask);
        sigaction(SIGPROF, &action, nullptr);
        itimerval timer{};
        timer.it_interval.tv_usec = kIntervalUs;
        timer.it_value.tv_usec = kIntervalUs;
        setitimer(ITIMER_PROF, &timer, nullptr);
    }

    void
    stop()
    {
        itimerval timer{};
        setitimer(ITIMER_PROF, &timer, nullptr);
        // Ignore, rather than restore the default action (terminate), in
        // case a signal generated before the disarm is still pending.
        std::signal(SIGPROF, SIG_IGN);
    }

    /** Histogram of the samples: offsets into this executable (the
     *  addresses `nm` prints) and, for other objects, their file name. */
    Value
    report() const
    {
        std::size_t taken = std::min(gSampleCount.load(), kMaxSamples);
        ExeRange exe = findExecutable();
        std::map<std::uintptr_t, std::uint64_t> offsets;
        std::map<std::string, std::uint64_t> objects;
        for (std::size_t i = 0; i < taken; ++i) {
            std::uintptr_t pc = gSamples[i];
            if (exe.contains(pc)) {
                ++offsets[pc - exe.bias];
                continue;
            }
            Dl_info info{};
            std::string name = "unknown";
            if (pc != 0 && dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
                info.dli_fname != nullptr) {
                name = info.dli_fname;
                name = name.substr(name.find_last_of('/') + 1);
            }
            ++objects[name];
        }
        Value exe_hist = Value::object();
        for (const auto& [offset, count] : offsets) {
            char key[32];
            std::snprintf(key, sizeof key, "%llx",
                          static_cast<unsigned long long>(offset));
            exe_hist[key] = count;
        }
        Value object_hist = Value::object();
        for (const auto& [name, count] : objects) {
            object_hist[name] = count;
        }
        Value out = Value::object();
        out["interval_us"] = std::uint64_t{kIntervalUs};
        out["samples"] = std::uint64_t{taken};
        out["dropped"] = std::uint64_t{gSampleCount.load() - taken};
        out["exe"] = std::move(exe_hist);
        out["objects"] = std::move(object_hist);
        return out;
    }

  private:
    struct ExeRange {
        std::uintptr_t bias = 0;
        std::vector<std::pair<std::uintptr_t, std::uintptr_t>> segments;

        bool
        contains(std::uintptr_t pc) const
        {
            for (const auto& [lo, hi] : segments) {
                if (pc >= lo && pc < hi) {
                    return true;
                }
            }
            return false;
        }
    };

    static ExeRange
    findExecutable()
    {
        ExeRange range;
        // The main program is the first object dl_iterate_phdr reports.
        dl_iterate_phdr(
            [](dl_phdr_info* info, std::size_t, void* data) -> int {
                auto* out = static_cast<ExeRange*>(data);
                out->bias = info->dlpi_addr;
                for (int i = 0; i < info->dlpi_phnum; ++i) {
                    const auto& ph = info->dlpi_phdr[i];
                    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
                        std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
                        out->segments.emplace_back(lo, lo + ph.p_memsz);
                    }
                }
                return 1;
            },
            &range);
        return range;
    }
};

// ----- result records ----------------------------------------------------

/** FNV-1a over the sorted (create, src, dst, inject, deliver, hops)
 *  keys of every sampled message: equal digests mean the same messages
 *  with the same timings, whatever order the partitions merged them. */
std::string
sampleDigest(const ss::LatencySampler& sampler)
{
    using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::uint64_t>;
    std::vector<Key> keys;
    keys.reserve(sampler.count());
    for (const ss::MessageSample& s : sampler.samples()) {
        keys.emplace_back(s.createTick, s.source, s.destination,
                          s.injectTick, s.deliverTick, s.hops);
    }
    std::sort(keys.begin(), keys.end());
    std::uint64_t hash = 14695981039346656037ull;
    auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    };
    for (const Key& k : keys) {
        std::apply([&mix](auto... v) { (mix(v), ...); }, k);
    }
    char text[24];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

/** The simulated results a run is checked on: RunResult::toJson()
 *  without the host-side engine block, the build version, and the event
 *  count (a faster engine may execute fewer events for the same
 *  result), plus the sample digest. */
Value
simulatedRecord(const ss::RunResult& result)
{
    Value record = result.toJson();
    record.erase("version");
    record.erase("engine");
    record.erase("events_executed");
    record["sample_digest"] = sampleDigest(result.sampler);
    return record;
}

/** Sums every counter in the registry by its last name component
 *  ("network.router_3.sa_grants" adds to "sa_grants"). */
Value
counterTotals(const ss::obs::MetricsRegistry& registry)
{
    std::map<std::string, std::uint64_t> totals;
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const ss::obs::Metric& metric = registry.at(i);
        if (metric.kind() != ss::obs::MetricKind::kCounter) {
            continue;
        }
        const std::string& name = metric.name();
        totals[name.substr(name.find_last_of('.') + 1)] +=
            static_cast<const ss::obs::Counter&>(metric).value();
    }
    Value out = Value::object();
    for (const auto& [name, total] : totals) {
        out[name] = total;
    }
    return out;
}

// ----- one run ------------------------------------------------------------

/** In-memory span: name, run id, parent span, start/end in seconds from
 *  the harness's start. */
struct Span {
    std::string name;
    std::uint64_t id;
    std::uint64_t run;
    std::uint64_t parent;  ///< 0 = none
    double start;
    double end;
};

struct RunOutcome {
    bool ok = false;
    std::string error;
    double setupS = 0.0;
    double runS = 0.0;
    double executerS = 0.0;
    double cpuS = 0.0;
    Value record;
    Value engine = Value::object();
    Value counters = Value::object();
};

class Harness {
  public:
    explicit Harness(Guard* guard) : guard_(guard), epoch_(Clock::now()) {}

    /** Builds and runs @p config once. With @p profiler, samples the
     *  run; with @p run_id, records spans for it. */
    RunOutcome
    runOnce(const Value& config, Profiler* profiler = nullptr,
            std::uint64_t run_id = 0)
    {
        RunOutcome out;
        Guard::Armed armed(guard_);
        try {
            Clock::time_point t0 = Clock::now();
            ss::Simulation simulation(config);
            out.setupS = secondsSince(t0);
            span(run_id, "setup", 0, t0);

            ss::Simulator* sim = simulation.simulator();
            if (profiler != nullptr) {
                profiler->start();
            }
            double cpu0 = processCpuSeconds();
            Clock::time_point t1 = Clock::now();
            ss::RunResult result = simulation.run();
            out.runS = secondsSince(t1);
            out.cpuS = processCpuSeconds() - cpu0;
            if (profiler != nullptr) {
                profiler->stop();
            }
            out.executerS = sim->runWallSeconds();
            if (run_id != 0) {
                // The executer span ends where Simulator::run() did; the
                // rest of Simulation::run() is finalize.
                std::uint64_t run_span = span(run_id, "run", 0, t1);
                Clock::time_point exec_end =
                    t1 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(out.executerS));
                span(run_id, "executer", run_span, t1, exec_end);
                span(run_id, "finalize", run_span, exec_end,
                     t1 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(out.runS)));
            }

            out.record = simulatedRecord(result);
            out.engine["events"] = result.eventsExecuted;
            out.engine["end_tick"] = result.endTick;
            out.engine["peak_queue_depth"] =
                std::uint64_t{result.peakQueueDepth};
            out.engine["pooled_events_allocated"] =
                std::uint64_t{sim->pooledEventsAllocated()};
            out.engine["partitions"] =
                std::uint64_t{sim->numWorkerPartitions()};
            out.engine["threads"] = std::uint64_t{sim->requestedThreads()};
            out.engine["components"] = std::uint64_t{sim->numComponents()};
            out.engine["sampled_messages"] =
                std::uint64_t{result.sampler.count()};
            out.engine["nonminimal_fraction"] =
                result.sampler.nonminimalFraction();
            out.counters = counterTotals(sim->metrics());
            out.ok = true;
        } catch (const std::exception& e) {
            if (profiler != nullptr) {
                profiler->stop();
            }
            out.error = e.what();
        }
        return out;
    }

    /** Host seconds in the constructor of one more Simulation of
     *  @p config, which is then dropped. */
    double
    timeSetup(const Value& config)
    {
        Guard::Armed armed(guard_);
        Clock::time_point t0 = Clock::now();
        auto simulation = std::make_unique<ss::Simulation>(config);
        return secondsSince(t0);
    }

    /** Records a span from @p start to now (or @p end); returns its id. */
    std::uint64_t
    span(std::uint64_t run_id, const std::string& name,
         std::uint64_t parent, Clock::time_point start,
         Clock::time_point end = Clock::time_point())
    {
        if (run_id == 0) {
            return 0;
        }
        if (end == Clock::time_point()) {
            end = Clock::now();
        }
        auto rel = [this](Clock::time_point t) {
            return std::chrono::duration<double>(t - epoch_).count();
        };
        spans_.push_back(
            {name, spans_.size() + 1, run_id, parent, rel(start), rel(end)});
        return spans_.size();
    }

    Value
    spansJson() const
    {
        Value out = Value::array();
        for (const Span& s : spans_) {
            Value v = Value::object();
            v["name"] = s.name;
            v["id"] = s.id;
            v["run"] = s.run;
            v["parent"] = s.parent;
            v["start_s"] = s.start;
            v["end_s"] = s.end;
            out.append(std::move(v));
        }
        return out;
    }

  private:
    Guard* guard_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    auto mid = values.begin() + values.size() / 2;
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

Value
outcomeJson(const RunOutcome& run)
{
    Value v = Value::object();
    v["ok"] = run.ok;
    if (!run.ok) {
        v["error"] = run.error;
        return v;
    }
    v["setup_s"] = run.setupS;
    v["run_s"] = run.runS;
    v["executer_s"] = run.executerS;
    v["cpu_s"] = run.cpuS;
    v["engine"] = run.engine;
    return v;
}

/** Repeats @p run_one (called with run ids 1, 2, ...) until the next
 *  repetition would end past @p budget seconds, and at least
 *  @p min_runs times; stops at the first failed repetition. Reports
 *  every repetition, the first one's results and counters, and how many
 *  repetitions gave other results than the first. */
template <typename RunOne>
Value
repeatFor(double budget, std::uint64_t min_runs, RunOne run_one)
{
    Value runs = Value::array();
    RunOutcome first;
    std::uint64_t mismatches = 0;
    std::vector<double> seconds;
    Clock::time_point start = Clock::now();
    for (std::uint64_t run_id = 1;; ++run_id) {
        if (run_id > min_runs &&
            secondsSince(start) + median(seconds) > budget) {
            break;
        }
        Clock::time_point t0 = Clock::now();
        RunOutcome run;
        try {
            run = run_one(run_id);
        } catch (const std::exception& e) {
            run.error = e.what();
        }
        seconds.push_back(secondsSince(t0));
        if (run_id == 1) {
            first = run;
        } else if (run.ok && !(run.record == first.record)) {
            ++mismatches;
        }
        runs.append(outcomeJson(run));
        if (!run.ok) {
            break;
        }
    }
    Value out = Value::object();
    out["runs"] = std::move(runs);
    out["record"] = first.record;
    out["counters"] = first.counters;
    out["mismatches"] = mismatches;
    return out;
}

struct Options {
    std::string config;
    double seconds = 10.0;
    std::uint64_t minReps = 3;
    bool traced = false;
    std::uint64_t variantThreads = 0;
    bool variantLegacy = false;
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --config FILE --seconds S "
                 "[--min-reps N] [--traced] "
                 "[--variant-threads N] [--variant-legacy]\n",
                 problem.c_str());
    std::exit(kUsageExit);
}

Options
parseOptions(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(arg + " needs a value");
            }
            return argv[++i];
        };
        try {
            if (arg == "--config") {
                opts.config = value();
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value());
            } else if (arg == "--min-reps") {
                opts.minReps = std::stoull(value());
            } else if (arg == "--traced") {
                opts.traced = true;
            } else if (arg == "--variant-threads") {
                opts.variantThreads = std::stoull(value());
            } else if (arg == "--variant-legacy") {
                opts.variantLegacy = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (opts.config.empty()) {
        usage("--config is required");
    }
    if (opts.minReps == 0) {
        usage("--min-reps must be at least 1");
    }
    return opts;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        usage("cannot read " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opts = parseOptions(argc, argv);
    std::string text = readFile(opts.config);
    Guard guard(kRssLimitBytes, kWallLimitS);
    Harness harness(&guard);

    Value out = Value::object();
    out["version"] = std::string(ss::buildVersion());
    out["build_type"] = std::string(SS_PERFBENCH_BUILD_TYPE);

    // Timed runs, repeated until the next one would end past the time
    // budget. Each parses the config and builds extra Simulations before
    // the one it runs, so that set-up is sampled across the whole window,
    // like the runs themselves. The calibration kernel runs before each
    // repetition and once after the last.
    Value parse_s = Value::array();
    Value setup_s = Value::array();
    Value calib_s = Value::array();
    Calibration calibration;
    Value config;
    double budget = opts.traced ? opts.seconds / 2 : opts.seconds;
    out["timed"] = repeatFor(budget, opts.minReps, [&](std::uint64_t) {
        calib_s.append(calibration.measure());
        Clock::time_point t0 = Clock::now();
        config = ss::json::parse(text);
        parse_s.append(secondsSince(t0));
        for (int i = 0; i < kSetupSamplesPerRun; ++i) {
            setup_s.append(harness.timeSetup(config));
        }
        RunOutcome run = harness.runOnce(config);
        if (run.ok) {
            setup_s.append(run.setupS);
        }
        return run;
    });
    calib_s.append(calibration.measure());
    out["calibration_s"] = std::move(calib_s);
    out["parse_s"] = std::move(parse_s);
    out["setup_s"] = std::move(setup_s);

    if (opts.traced) {
        // Traced runs for a quarter of the budget, so that short
        // workloads still give enough samples.
        Value obs = Value::object();
        obs["enabled"] = true;
        obs["series_file"] = "";
        obs["trace_file"] = "";
        // Counters only: one collector sample at most.
        obs["sample_interval"] = std::uint64_t{1} << 40;
        Profiler profiler;
        Value traced = repeatFor(opts.seconds / 4, 1, [&](std::uint64_t id) {
            Clock::time_point t0 = Clock::now();
            Value traced_config = ss::json::parse(text);
            harness.span(id, "parse", 0, t0);
            traced_config["observability"] = obs;
            return harness.runOnce(traced_config, &profiler, id);
        });
        traced["profile"] = profiler.report();
        traced["spans"] = harness.spansJson();
        out["traced"] = std::move(traced);

        // Executer comparisons, an eighth of the budget each.
        Value variants = Value::object();
        auto compare = [&](auto edit) {
            return repeatFor(opts.seconds / 8, 1, [&](std::uint64_t) {
                Value cfg = config;
                edit(cfg["simulator"]);
                return harness.runOnce(cfg);
            });
        };
        if (opts.variantThreads != 0) {
            variants["threads_" + std::to_string(opts.variantThreads)] =
                compare([&](Value& simulator) {
                    simulator["threads"] = opts.variantThreads;
                });
        }
        if (opts.variantLegacy) {
            variants["legacy"] = compare([](Value& simulator) {
                simulator.erase("threads");
                simulator.erase("partitions");
            });
        }
        out["variants"] = std::move(variants);
    }

    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);
    out["peak_rss_kb"] = static_cast<std::uint64_t>(usage_self.ru_maxrss);
    std::printf("%s\n", out.toString().c_str());
    return 0;
}

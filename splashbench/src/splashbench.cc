/**
 * @file
 * Splash-Bench: the host cost of regenerating the figures,
 * running the suite natively, and driving isolated campaigns.
 *
 *   splashbench --workload=<sim-fig64|native-suite4|campaign>
 *               --seed=<n> --seconds=<s> --trace=<0|1>
 *               [--work-dir=<dir>] [--golden=<file>] [--smoke]
 *
 * The benchmark calls the library from outside, through its public entry
 * points only (runPlan, runBenchmark, runBenchmarkAttempt,
 * makeBenchmark/World/Benchmark::setup/verify, makeEngine and
 * NativeEngine::runFast, the wire codec and ResultStore).  --seed is
 * the plan's base `seed` param, so the same seed gives the same
 * inputs.  With --trace=0 it prints the end-to-end metrics; with
 * --trace=1 it re-runs one pass with every call wrapped in a span
 * (spans.h) and prints the per-layer metrics.  Every job's outputs
 * are checked: each must finish Ok and verified, and its sim
 * statistics must match across passes, between the traced and the
 * untraced pass, and (default seed) the golden file.  The last stdout
 * line is one JSON object: correct, attempted, failed, metrics.
 * README.md holds the metric catalogue.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/benchmark.h"
#include "core/run_plan.h"
#include "core/sync_profile.h"
#include "core/world.h"
#include "engine/engine.h"
#include "engine/native_engine.h"
#include "harness/executor.h"
#include "harness/presets.h"
#include "harness/result_store.h"
#include "harness/scheduler.h"
#include "harness/suite.h"
#include "spans.h"

namespace splashbench {
namespace {

using namespace splash;
using Clock = std::chrono::steady_clock;

/** The plan's default base seed; the golden file is recorded at it. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Set-up rounds per run; setup_s is their median (setupRound). */
constexpr int kSetupRounds = 3;
/** Most CPUs one set-up round visits. */
constexpr int kRoundCpus = 4;
/**
 * Timed samples of read passes: at least this many per run, spread over
 * its passes so they see the same stretch of host time as wall_s.
 * resume_s is their first decile (kReadQuantile).
 */
constexpr int kReadSamples = 72;
/**
 * Replayed jobs per timed sample: one read pass takes 0.2 to 2 ms, too
 * short to time alone, so a sample is a batch of whole read passes, a
 * few milliseconds: shorter than the stretches, 50 to 100 ms, in which
 * a shared host's CPU runs at one speed.
 */
constexpr int kReadJobsPerSample = 240;
/**
 * The quantile of the read samples that resume_s reports.  A CPU of a
 * shared host switches between a fast and a slow speed (about 230 and
 * 360 us per sim-fig64 read pass), and the share of time it spends in
 * each changes from run to run, so a median flips between the two.
 * Interference only ever adds time: the fast end repeats.
 */
constexpr double kReadQuantile = 0.1;
/** Calls per wire-codec timing (one call is a few microseconds). */
constexpr int kWireReps = 200;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double at = q * double(values.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (at - double(lo)) * (values[hi] - values[lo]);
}

double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

/**
 * Robust one-pass time from repeated per-job samples: the median of
 * each job's samples, summed over jobs [first, last).  A host hiccup
 * during one pass then moves no job's median.
 */
double
medianSum(const std::vector<std::vector<double>>& passes,
          std::size_t first, std::size_t last)
{
    double total = 0;
    for (std::size_t j = first; j < last; ++j) {
        std::vector<double> samples;
        for (const auto& pass : passes)
            samples.push_back(pass[j]);
        total += median(samples);
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr, "splashbench: %s\n", message.c_str());
    std::exit(2);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = -1; ///< required: run.py passes run_seconds
    bool trace = false;
    bool smoke = false; ///< smallest size: the self-test's pass
    std::string workDir = ".";
    std::string golden;
};

Options
parseOptions(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (arg != "--smoke") {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            value = argv[++i];
        }
        try {
            if (arg == "--workload")
                opts.workload = value;
            else if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (arg == "--work-dir")
                opts.workDir = value;
            else if (arg == "--golden")
                opts.golden = value;
            else if (arg == "--smoke")
                opts.smoke = true;
            else
                usageError("unknown option " + arg);
        } catch (const std::logic_error&) {
            usageError("bad value for " + arg + ": '" + value + "'");
        }
    }
    if (opts.workload.empty())
        usageError("--workload is required");
    if (opts.seconds < 0)
        usageError("--seconds is required");
    return opts;
}

// ---------------------------------------------------------------------
// Host

double
toSeconds(const timeval& t)
{
    return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
}

struct HostUsage
{
    double user = 0;
    double sys = 0;
    long switches = 0; ///< voluntary + involuntary context switches
};

HostUsage
hostUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostUsage usage;
    usage.user = toSeconds(ru.ru_utime);
    usage.sys = toSeconds(ru.ru_stime);
    usage.switches = ru.ru_nvcsw + ru.ru_nivcsw;
    return usage;
}

/** CPU seconds (user + system) of this process and its reaped children. */
double
cpuSeconds()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return toSeconds(self.ru_utime) + toSeconds(self.ru_stime) +
           toSeconds(children.ru_utime) + toSeconds(children.ru_stime);
}

int
onlineCpus()
{
    return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

std::string
loadAverage()
{
    double load[3] = {};
    if (getloadavg(load, 3) != 3)
        return "unknown";
    char text[64];
    std::snprintf(text, sizeof text, "%.2f/%.2f/%.2f", load[0], load[1],
                  load[2]);
    return text;
}

/**
 * Stolen and total CPU time of the whole machine so far, in clock ticks
 * (/proc/stat): on a virtual machine, stolen time is time the host ran
 * something else on one of its CPUs.  {0, 0} where it is not reported.
 */
std::pair<double, double>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double stolen = 0, total = 0, value;
    in >> cpu;
    for (int field = 0; field < 8 && in >> value; ++field) {
        total += value;
        if (field == 7) // user nice system idle iowait irq softirq steal
            stolen = value;
    }
    return {stolen, total};
}

/** Steady-clock seconds (wall-clock time). */
double
wallSeconds()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/** Peak RSS of this process, or of its largest child if larger (MiB). */
double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/**
 * Pins the calling thread to CPU k % n of its allowed CPUs while sample
 * k runs: a single-threaded sample, or a sim job, whose engine threads
 * inherit the mask (Workload::pinsJobs).  Successive samples then visit
 * every CPU, so a run's result does not hang on the one CPU the process
 * happened to start on (CPUs of a shared host run at different
 * speeds).  The thread's own mask is restored on destruction.
 */
class PinnedSample
{
  public:
    explicit PinnedSample(std::size_t sample)
    {
        const std::vector<int> cpus = allowedCpus(saved_);
        if (cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[sample % cpus.size()], &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    }

    ~PinnedSample()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }

    PinnedSample(const PinnedSample&) = delete;
    PinnedSample& operator=(const PinnedSample&) = delete;

    /** The CPUs the calling thread may run on; fills @p mask. */
    static std::vector<int>
    allowedCpus(cpu_set_t& mask)
    {
        std::vector<int> cpus;
        if (sched_getaffinity(0, sizeof mask, &mask) != 0)
            return cpus;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &mask))
                cpus.push_back(cpu);
        return cpus;
    }

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

void
label(const std::string& text)
{
    // Flushed at once: isolated jobs fork, and a child must not
    // inherit (and re-emit) buffered output.
    std::printf("splashbench: %s\n", text.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Workloads

/** One workload: a Splash-3 plan and a Splash-4 plan run in turn. */
struct Workload
{
    std::string name;
    EngineKind engine = EngineKind::Sim;
    int threads = 1;
    double scale = 0; ///< benchParams scale; 0 = CLI-default inputs
    int repetitions = 1;
    int slots = 1; ///< concurrent executor slots (runPlan --jobs)
    int minPasses = 1;
    /** Repeat passes past minPasses until --seconds have passed. */
    bool timed = true;
    RunPlan plans[2]; ///< [0] Splash-3, [1] Splash-4
    /** The same jobs as one-job plans, for per-job timing. */
    std::vector<RunPlan> jobPlans[2];

    bool sim() const { return engine == EngineKind::Sim; }
    bool campaign() const { return slots > 1; }
    std::size_t jobs() const { return plans[0].size() + plans[1].size(); }

    /**
     * The clock host time is read from.  The simulator runs one thread
     * at a time and hands the turn over through the kernel, so its
     * wall-clock time follows the host's wake-up latency; its CPU time
     * is the work.  Native threads run in parallel and spin, so their
     * CPU time counts waiting that contention inflates: wall-clock is
     * the work there, as it is for a campaign waiting on its jobs.
     */
    double hostNow() const { return sim() ? cpuSeconds() : wallSeconds(); }

    /**
     * Whether each job runs confined to one CPU (PinnedSample).  The
     * simulator runs one thread at a time, so one CPU costs it no
     * parallelism, and each handoff is then a context switch on that
     * CPU.  Unconfined, a handoff wakes a thread on another, often
     * idle, virtual CPU, and on a shared host the latency of that
     * wake-up, which also shows in CPU time, changes from minute to
     * minute (README.md, "Host time").
     */
    bool pinsJobs() const { return sim(); }

    SchedulerOptions
    scheduler() const
    {
        SchedulerOptions options;
        options.jobs = slots;
        options.isolate.enabled = slots > 1;
        // A benchmark's failures must show, not be retried away.
        options.retry.maxRetries = 0;
        return options;
    }
};

Workload
makeWorkload(const Options& opts)
{
    Workload w;
    w.name = opts.workload;
    if (w.name == "sim-fig64") {
        // bench/fig1_epyc64 --quick: the fig1 cross product.
        w.engine = EngineKind::Sim;
        w.threads = opts.smoke ? 8 : 64;
        w.scale = opts.smoke ? 0.02 : 0.25;
        // Exactly four passes, so that each job runs once on each of up
        // to four CPUs (runPass).  The count is fixed because the
        // process's peak RSS grows with every 64-thread pass: a count
        // that followed the host's speed would move peak_rss_mb.
        w.minPasses = 4;
        w.timed = false;
    } else if (w.name == "native-suite4") {
        w.engine = EngineKind::Native;
        w.threads = std::min(4, onlineCpus());
        w.scale = opts.smoke ? 0.02 : 1.0;
        w.minPasses = 2;
    } else if (w.name == "campaign") {
        w.engine = EngineKind::Native;
        w.threads = 2;
        w.repetitions = opts.smoke ? 1 : 5;
        w.slots = 2;
    } else {
        usageError("unknown workload '" + w.name +
                   "' (sim-fig64, native-suite4, campaign)");
    }
    const SuiteVersion suites[2] = {SuiteVersion::Splash3,
                                    SuiteVersion::Splash4};
    for (int s = 0; s < 2; ++s) {
        for (int rep = 0; rep < w.repetitions; ++rep) {
            for (const std::string& name : suiteOrder()) {
                RunConfig config;
                config.threads = w.threads;
                config.suite = suites[s];
                config.engine = w.engine;
                config.profile = "epyc64"; // fig1's machine (sim only)
                config.params =
                    w.scale > 0 ? benchParams(name, w.scale) : Params();
                config.params.set("seed",
                                  static_cast<std::int64_t>(opts.seed));
                w.plans[s].add(name, config, rep);
                w.jobPlans[s].emplace_back().add(name, config, rep);
            }
        }
    }
    return w;
}

// ---------------------------------------------------------------------
// Output checks

std::uint64_t
syncOps(const RunResult& result)
{
    const ThreadStats& t = result.totals;
    return t.barrierCrossings + t.lockAcquires + t.atomicOps();
}

/** What the sim must reproduce bit for bit: cycles, traffic, counts. */
std::vector<std::uint64_t>
simStats(const RunResult& r)
{
    const ThreadStats& t = r.totals;
    return {r.simCycles,         r.lineTransfers,
            r.transfersByScope[0], r.transfersByScope[1],
            r.transfersByScope[2], r.transfersByScope[3],
            t.barrierCrossings,  t.lockAcquires,
            t.ticketOps,         t.sumOps,
            t.stackOps,          t.flagOps};
}

/**
 * Same outcome: status and verification, plus the sim statistics when
 * @p stats (always for sim jobs; native counts depend on the host's
 * schedule, so native jobs compare them only where a record is
 * replayed rather than re-run).
 */
bool
sameOutcome(const RunResult& a, const RunResult& b, bool stats)
{
    if (a.status != b.status || a.verified != b.verified)
        return false;
    return !stats || simStats(a) == simStats(b);
}

/** Attempted jobs and the failed ones among them (fail_ratio). */
class Ledger
{
  public:
    /** One job attempt: it fails unless Ok and verified. */
    void
    job(const std::string& key, const JobSpec& job, const RunResult& r)
    {
        ++attempted_;
        if (!r.ok() || !r.verified)
            fail(key, job.benchmark + " (" + toString(job.config.suite) +
                          "): " + toString(r.status) + ", " +
                          r.verifyMessage);
    }

    /** A check on an attempted job failed (counted once per job). */
    void
    fail(const std::string& key, const std::string& why)
    {
        failed_.insert(key);
        std::fprintf(stderr, "splashbench: FAIL %s: %s\n", key.c_str(),
                     why.c_str());
    }

    /** A check outside any job failed: the run is incorrect. */
    void
    broken(const std::string& why)
    {
        broken_ = true;
        std::fprintf(stderr, "splashbench: FAIL %s\n", why.c_str());
    }

    long attempted() const { return attempted_; }
    long failed() const { return static_cast<long>(failed_.size()); }
    bool correct() const { return failed_.empty() && !broken_; }

  private:
    long attempted_ = 0;
    std::set<std::string> failed_;
    bool broken_ = false;
};

// ---------------------------------------------------------------------
// Passes

/** One pass; times are host seconds (Workload::hostNow). */
struct Pass
{
    double suiteSeconds[2] = {}; ///< Splash-3, Splash-4
    double wallClock = 0;        ///< wall-clock seconds (runPass only)
    std::vector<JobOutcome> outcomes;
    std::vector<double> jobSeconds; ///< per outcome, in-process only

    double host() const { return suiteSeconds[0] + suiteSeconds[1]; }

    std::uint64_t
    ops() const
    {
        std::uint64_t total = 0;
        for (const JobOutcome& o : outcomes)
            total += syncOps(o.result);
        return total;
    }
};

/**
 * One pass over the workload's jobs through runPlan: a campaign's
 * suite plans on their concurrent slots; an in-process workload's jobs
 * one at a time, each timed, with @p afterJob (if set) called, untimed,
 * after each.  Pass @p index pins its job k, if the workload pins jobs,
 * to CPU index + k in turn.
 */
Pass
runPass(const Workload& w, ResultStore* store, std::size_t index,
        const std::function<void()>& afterJob = {})
{
    Pass pass;
    const auto start = Clock::now();
    for (int s = 0; s < 2; ++s) {
        const double suiteStart = w.hostNow();
        if (w.campaign()) {
            for (auto& o : runPlan(w.plans[s], w.scheduler(), store))
                pass.outcomes.push_back(std::move(o));
        } else {
            for (const RunPlan& job : w.jobPlans[s]) {
                std::optional<PinnedSample> pin;
                if (w.pinsJobs())
                    pin.emplace(index + pass.outcomes.size());
                const double jobStart = w.hostNow();
                auto outcomes = runPlan(job, w.scheduler(), store);
                pass.jobSeconds.push_back(w.hostNow() - jobStart);
                pass.outcomes.push_back(std::move(outcomes.front()));
                pin.reset();
                if (afterJob)
                    afterJob();
            }
        }
        pass.suiteSeconds[s] = w.hostNow() - suiteStart;
    }
    pass.wallClock = since(start);
    return pass;
}

void
checkPass(const std::string& label, const Pass& pass, Ledger& ledger)
{
    for (const JobOutcome& o : pass.outcomes)
        ledger.job(label + "/" + o.job.jobId, o.job, o.result);
}

/** Fail every job of @p later whose outputs differ from @p first's. */
void
comparePasses(const std::string& label, const Pass& first,
              const Pass& later, bool stats, Ledger& ledger)
{
    for (std::size_t i = 0; i < later.outcomes.size(); ++i) {
        const JobOutcome& o = later.outcomes[i];
        if (i >= first.outcomes.size() ||
            !sameOutcome(first.outcomes[i].result, o.result, stats))
            ledger.fail(label + "/" + o.job.jobId,
                        o.job.benchmark + " (" +
                            toString(o.job.config.suite) +
                            "): outputs differ from the first pass");
    }
}

/**
 * One set-up round: makeBenchmark + World + setup of every job, once
 * on each of up to kRoundCpus CPUs (pinned).  @return per job, the
 * fastest of the round in CPU seconds: the CPUs of a shared host run
 * at different speeds from minute to minute, and interference only
 * ever adds time, so the best CPU of the round is the observation
 * that repeats.
 */
std::vector<double>
setupRound(const Workload& w)
{
    cpu_set_t mask;
    const std::size_t cpus = std::clamp<std::size_t>(
        PinnedSample::allowedCpus(mask).size(), 1, kRoundCpus);
    std::vector<double> best;
    for (std::size_t c = 0; c < cpus; ++c) {
        PinnedSample pin(c);
        std::size_t j = 0;
        for (const RunPlan& plan : w.plans) {
            for (const JobSpec& job : plan.jobs()) {
                const double start = cpuSeconds();
                auto benchmark = makeBenchmark(job.benchmark);
                World world(job.config.threads, job.config.suite);
                benchmark->setup(world, job.config.params);
                const double seconds = cpuSeconds() - start;
                if (j == best.size())
                    best.push_back(seconds);
                else
                    best[j] = std::min(best[j], seconds);
                ++j;
            }
        }
    }
    return best;
}

/** An empty, loaded store at @p path (an earlier file is removed). */
std::unique_ptr<ResultStore>
freshStore(const std::string& path)
{
    std::filesystem::remove(path);
    auto store = std::make_unique<ResultStore>(path);
    store->load();
    return store;
}

void
writeStore(const std::string& path, const Pass& pass)
{
    const auto store = freshStore(path);
    for (const JobOutcome& o : pass.outcomes)
        store->append(makeResultRecord(o.job, o.result));
}

/**
 * The read pass: load the store written from @p written and resume
 * the workload's plans from it, every job replayed.  The replayed
 * records must reproduce the written outcomes exactly (resume
 * identity).
 */
void
readPass(const Workload& w, const std::string& path, const Pass& written,
         Ledger& ledger)
{
    ResultStore store(path);
    store.load();
    std::size_t i = 0;
    for (const RunPlan& plan : w.plans) {
        for (const JobOutcome& o : runPlan(plan, w.scheduler(), &store)) {
            if (!o.resumed ||
                !sameOutcome(written.outcomes[i].result, o.result, true))
                ledger.fail("read/" + o.job.jobId,
                            o.job.benchmark +
                                ": resumed record differs from the run");
            ++i;
        }
    }
}

// ---------------------------------------------------------------------
// Sim golden (default seed): cycles, traffic, and construct counts

std::string
goldenKey(const JobOutcome& o)
{
    return std::string(toString(o.job.config.suite)) + " " +
           o.job.benchmark;
}

std::string
goldenHeader(const Workload& w)
{
    std::ostringstream os;
    os << "# splashbench " << w.name << " golden: seed=" << kDefaultSeed
       << " scale=" << w.scale << " threads=" << w.threads
       << " profile=epyc64\n"
       << "# suite benchmark simCycles lineTransfers sameCore "
          "sameDomain crossDomain memory barrierCrossings lockAcquires "
          "ticketOps sumOps stackOps flagOps\n";
    return os.str();
}

void
checkGolden(const std::string& path, const Workload& w, const Pass& pass,
            Ledger& ledger)
{
    std::ifstream in(path);
    if (!in) {
        ledger.broken("golden file " + path + " is missing");
        return;
    }
    std::stringstream all;
    all << in.rdbuf();
    const std::string text = all.str();
    if (text.rfind(goldenHeader(w), 0) != 0) {
        ledger.broken("golden file " + path +
                      " was recorded for another configuration");
        return;
    }
    std::map<std::string, std::vector<std::uint64_t>> golden;
    std::istringstream lines(text.substr(goldenHeader(w).size()));
    for (std::string line; std::getline(lines, line);) {
        std::istringstream fields(line);
        std::string suite, benchmark;
        fields >> suite >> benchmark;
        auto& values = golden[suite + " " + benchmark];
        for (std::uint64_t v; fields >> v;)
            values.push_back(v);
    }
    for (const JobOutcome& o : pass.outcomes) {
        const auto it = golden.find(goldenKey(o));
        if (it == golden.end() || it->second != simStats(o.result))
            ledger.fail("golden/" + o.job.jobId,
                        goldenKey(o) +
                            ": sim statistics differ from the golden");
    }
}

// ---------------------------------------------------------------------
// Traced run

/** Host-side tallies of one traced pass, by layer. */
struct Tally
{
    double setupSeconds = 0;
    double verifySeconds = 0;
    double engineSeconds = 0; ///< engine construction + run
    double roiSeconds = 0;    ///< sum of RunResult::wallSeconds
    HostUsage usage;          ///< rusage delta around the engine calls
    std::uint64_t ops = 0;
    std::uint64_t lineTransfers = 0;
    std::map<std::string, double> engineSecondsBy; ///< per benchmark
    std::map<std::string, long> switchesBy;         ///< per benchmark
    std::map<std::string, std::uint64_t> opsBy;     ///< per benchmark
    std::vector<std::shared_ptr<const SyncProfile>> profiles;
};

/**
 * One in-process job with set-up, engine and verify timed apart: the
 * calls runBenchmark makes for a single-shot job, in its order and with
 * its fast-path choice, so the outputs must match the untraced job's.
 * @p engineSpan names the engine call's span.
 */
RunResult
tracedJob(Tracer& tracer, const JobSpec& job, const RunConfig& config,
          const std::string& engineSpan, Tally& tally)
{
    Tracer::Scope jobSpan(tracer, "job." + job.benchmark, job.jobId);

    std::unique_ptr<Benchmark> benchmark;
    std::unique_ptr<World> world;
    auto start = Clock::now();
    {
        Tracer::Scope span(tracer, "core.setup");
        benchmark = makeBenchmark(job.benchmark);
        world = std::make_unique<World>(config.threads, config.suite);
        benchmark->setup(*world, config.params);
    }
    tally.setupSeconds += since(start);

    const bool fast = config.fastPath != FastPath::Off &&
                      config.engine == EngineKind::Native &&
                      !config.raceCheck && benchmark->hasFastPath();
    EngineOutcome outcome;
    const HostUsage before = hostUsage();
    start = Clock::now();
    {
        Tracer::Scope span(tracer, engineSpan);
        if (fast) {
            NativeOptions options;
            options.chaos = config.chaos;
            options.syncProfile = config.syncProfile;
            options.watchdog = config.watchdog;
            options.cpuAffinity = config.cpuAffinity;
            NativeEngine engine(*world, options);
            outcome = engine.runFast(
                [&](NativeFastContext& ctx) { benchmark->runFast(ctx); });
        } else {
            auto engine = makeEngine(*world, config);
            outcome =
                engine->run([&](Context& ctx) { benchmark->run(ctx); });
        }
    }
    const double engineSeconds = since(start);
    const HostUsage after = hostUsage();
    tally.engineSeconds += engineSeconds;
    tally.engineSecondsBy[job.benchmark] += engineSeconds;
    tally.usage.user += after.user - before.user;
    tally.usage.sys += after.sys - before.sys;
    tally.usage.switches += after.switches - before.switches;
    tally.switchesBy[job.benchmark] += after.switches - before.switches;

    RunResult result;
    result.status = outcome.status;
    result.statusDetail = outcome.statusDetail;
    result.simCycles = outcome.makespan;
    result.lineTransfers = outcome.lineTransfers;
    result.transfersByScope = outcome.transfersByScope;
    result.wallSeconds = outcome.wallSeconds;
    result.syncProfile = outcome.syncProfile;
    result.perThread = std::move(outcome.perThread);
    for (const auto& stats : result.perThread)
        result.totals.merge(stats);
    if (result.status == RunStatus::Ok) {
        start = Clock::now();
        Tracer::Scope span(tracer, "core.verify");
        result.verified = benchmark->verify(result.verifyMessage);
        if (!result.verified)
            result.status = RunStatus::VerifyFailed;
        tally.verifySeconds += since(start);
    }
    tally.roiSeconds += result.wallSeconds;
    tally.ops += syncOps(result);
    tally.opsBy[job.benchmark] += syncOps(result);
    tally.lineTransfers += result.lineTransfers;
    if (result.syncProfile)
        tally.profiles.push_back(result.syncProfile);
    return result;
}

/** The traced twin of runPass (pass 0) for in-process workloads. */
Pass
tracedPass(const Workload& w, Tracer& tracer, bool profiled,
           Tally& tally)
{
    Tracer::Scope passSpan(tracer, profiled ? "bench.profiled_pass"
                                            : "bench.pass");
    const std::string engineSpan =
        profiled ? "sync.run" : w.sim() ? "sim.run" : "native.run";
    Pass pass;
    for (int s = 0; s < 2; ++s) {
        const double start = w.hostNow();
        for (const JobSpec& job : w.plans[s].jobs()) {
            RunConfig config = job.config;
            config.syncProfile = profiled;
            std::optional<PinnedSample> pin;
            if (w.pinsJobs())
                pin.emplace(pass.outcomes.size());
            JobOutcome o;
            o.job = job;
            o.result = tracedJob(tracer, job, config, engineSpan, tally);
            o.done = true;
            pass.outcomes.push_back(std::move(o));
        }
        pass.suiteSeconds[s] = w.hostNow() - start;
    }
    return pass;
}

/**
 * The traced twin of a campaign write pass: the scheduler's
 * per-attempt calls (store intent, isolated attempt, store append) on
 * the same number of worker threads, one trace track per worker.
 */
Pass
tracedCampaignPass(const Workload& w, Tracer& tracer,
                   const std::string& storePath)
{
    const auto store = freshStore(storePath);
    const IsolateOptions iso = w.scheduler().isolate;
    Pass pass;
    for (int s = 0; s < 2; ++s) {
        const std::vector<JobSpec>& jobs = w.plans[s].jobs();
        std::vector<RunResult> results(jobs.size());
        std::mutex mutex;
        std::size_t next = 0;
        const auto worker = [&] {
            for (;;) {
                std::size_t i;
                {
                    std::lock_guard<std::mutex> guard(mutex);
                    if (next >= jobs.size())
                        return;
                    i = next++;
                }
                const JobSpec& job = jobs[i];
                Tracer::Scope jobSpan(tracer, "job." + job.benchmark,
                                      job.jobId);
                {
                    Tracer::Scope span(tracer, "store.started");
                    std::lock_guard<std::mutex> guard(mutex);
                    store->appendStarted(job, 1);
                }
                RunResult result;
                {
                    Tracer::Scope span(tracer, "executor.attempt");
                    result = runBenchmarkAttempt(job.benchmark, job.config,
                                                 iso, job.jobId, 1);
                }
                {
                    Tracer::Scope span(tracer, "store.append");
                    std::lock_guard<std::mutex> guard(mutex);
                    store->append(makeResultRecord(job, result));
                }
                results[i] = std::move(result);
            }
        };
        const auto start = Clock::now();
        std::vector<std::thread> workers;
        for (int slot = 0; slot < w.slots; ++slot)
            workers.emplace_back(worker);
        for (auto& t : workers)
            t.join();
        pass.suiteSeconds[s] = since(start);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            JobOutcome o;
            o.job = jobs[i];
            o.result = std::move(results[i]);
            o.done = true;
            pass.outcomes.push_back(std::move(o));
        }
    }
    return pass;
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

void
put(Metrics& metrics, const std::string& name, double value,
    const std::string& unit)
{
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

/** sync.<kind>.* from the profiled pass's Sync-Scope profiles. */
void
syncMetrics(const Tally& profiled, bool withhold, Metrics& metrics)
{
    struct Kind
    {
        std::uint64_t ops = 0, attempts = 0, retries = 0, waitNs = 0;
    };
    std::map<std::string, Kind> kinds;
    for (const auto& profile : profiled.profiles) {
        for (const ConstructProfile& c : profile->constructs) {
            Kind& k = kinds[toString(c.kind)];
            k.ops += c.ops;
            k.attempts += c.attempts;
            k.retries += c.retries;
            k.waitNs += c.waitTotal;
        }
    }
    for (const char* name : {"lock", "barrier", "ticket", "sum", "stack",
                             "queue", "deque", "flag"}) {
        const Kind& k = kinds[name];
        const std::string prefix = std::string("sync.") + name;
        put(metrics, prefix + ".ops", double(k.ops), "count");
        put(metrics, prefix + ".retry_ratio",
            ratio(double(k.retries), double(k.attempts)), "ratio");
        put(metrics, prefix + ".wait_ns_per_op",
            withhold ? 0.0 : ratio(double(k.waitNs), double(k.ops)),
            "ns");
    }
}

/**
 * executor.*: per-job overhead of an isolated attempt over the
 * in-process run of the same job, at the default heartbeat and with
 * the heartbeat off (one repetition of the plan).
 */
void
executorProbe(const Workload& w, Tracer& tracer, Ledger& ledger,
              Metrics& metrics)
{
    std::vector<double> overheadMs, heartbeatMs;
    if (w.campaign()) {
        const IsolateOptions iso = w.scheduler().isolate;
        IsolateOptions quiet = iso;
        quiet.heartbeatIntervalSeconds = 0;
        for (const RunPlan& plan : w.plans) {
            for (const JobSpec& job : plan.jobs()) {
                if (job.repetition != 0)
                    continue;
                Tracer::Scope jobSpan(tracer, "job." + job.benchmark,
                                      job.jobId);
                const auto timed = [&](const char* span, auto&& call) {
                    Tracer::Scope s(tracer, span);
                    const auto start = Clock::now();
                    const RunResult result = call();
                    ledger.job(std::string(span) + "/" + job.jobId, job,
                               result);
                    return since(start);
                };
                const double inProcess =
                    timed("executor.in_process", [&] {
                        return runBenchmark(job.benchmark, job.config);
                    });
                const double isolated = timed("executor.attempt", [&] {
                    return runBenchmarkAttempt(job.benchmark, job.config,
                                               iso, job.jobId, 1);
                });
                const double silent =
                    timed("executor.attempt_no_heartbeat", [&] {
                        return runBenchmarkAttempt(job.benchmark,
                                                   job.config, quiet,
                                                   job.jobId, 1);
                    });
                overheadMs.push_back(1e3 * (isolated - inProcess));
                heartbeatMs.push_back(1e3 * (isolated - silent));
            }
        }
    }
    put(metrics, "executor.overhead_ms.p50", median(overheadMs), "ms");
    put(metrics, "executor.overhead_ms.p90", quantile(overheadMs, 0.9),
        "ms");
    put(metrics, "executor.heartbeat_ms", median(heartbeatMs), "ms");
}

/** wire.*: the child-to-parent codec over every job's result. */
void
wireProbe(const Pass& pass, Tracer& tracer, Ledger& ledger,
          Metrics& metrics)
{
    double encode = 0, decode = 0, bytes = 0;
    for (const JobOutcome& o : pass.outcomes) {
        std::string text;
        auto start = Clock::now();
        {
            Tracer::Scope span(tracer, "wire.encode", o.job.jobId);
            for (int k = 0; k < kWireReps; ++k)
                text = serializeRunResult(o.result);
        }
        encode += since(start);
        RunResult back;
        bool decoded = true;
        start = Clock::now();
        {
            Tracer::Scope span(tracer, "wire.decode", o.job.jobId);
            for (int k = 0; k < kWireReps; ++k) {
                back = RunResult();
                decoded = deserializeRunResult(text, back) && decoded;
            }
        }
        decode += since(start);
        bytes += double(text.size());
        if (!decoded || !sameOutcome(o.result, back, true))
            ledger.fail("wire/" + o.job.jobId,
                        o.job.benchmark + ": wire round trip differs");
    }
    const double calls = double(pass.outcomes.size()) * kWireReps;
    put(metrics, "wire.encode_us", 1e6 * ratio(encode, calls), "us");
    put(metrics, "wire.decode_us", 1e6 * ratio(decode, calls), "us");
    put(metrics, "wire.bytes",
        ratio(bytes, double(pass.outcomes.size())), "bytes");
}

/** store.*: intents, appends, and loads of a fresh store. */
void
storeProbe(const Pass& pass, const std::string& path, Tracer& tracer,
           Ledger& ledger, Metrics& metrics)
{
    double started = 0, appended = 0;
    {
        const auto store = freshStore(path);
        for (const JobOutcome& o : pass.outcomes) {
            auto start = Clock::now();
            {
                Tracer::Scope span(tracer, "store.started", o.job.jobId);
                store->appendStarted(o.job, 1);
            }
            started += since(start);
            start = Clock::now();
            {
                Tracer::Scope span(tracer, "store.append", o.job.jobId);
                store->append(makeResultRecord(o.job, o.result));
            }
            appended += since(start);
        }
    }
    std::vector<double> loads;
    std::size_t records = 0;
    for (int k = 0; k < kReadSamples; ++k) {
        ResultStore store(path);
        const auto start = Clock::now();
        Tracer::Scope span(tracer, "store.load");
        records = store.load();
        loads.push_back(since(start));
    }
    if (records != pass.outcomes.size())
        ledger.broken("store probe: loaded " + std::to_string(records) +
                      " of " + std::to_string(pass.outcomes.size()) +
                      " records");
    const double n = double(pass.outcomes.size());
    put(metrics, "store.append_us", 1e6 * ratio(appended, n), "us");
    put(metrics, "store.started_us", 1e6 * ratio(started, n), "us");
    put(metrics, "store.load_ms", 1e3 * median(loads), "ms");
    put(metrics, "store.bytes_per_record",
        ratio(double(std::filesystem::file_size(path)), double(records)),
        "bytes");
}

// ---------------------------------------------------------------------
// Runs

/** Read passes per timed sample (kReadJobsPerSample). */
int
readBatch(const Workload& w)
{
    return std::max<int>(1, kReadJobsPerSample / int(w.jobs()));
}

/**
 * Timed read passes (readPass) from the store at @p path, which holds
 * @p written: @p count samples of readBatch passes, each sample pinned
 * to the next CPU in turn, on the process's CPU clock.  Appends
 * per-pass seconds to @p reads.
 */
void
readSamples(const Workload& w, const std::string& path, const Pass& written,
            int count, std::vector<double>& reads, Ledger& ledger)
{
    const int batch = readBatch(w);
    for (int k = 0; k < count; ++k) {
        PinnedSample pin(reads.size());
        const double begin = cpuSeconds();
        for (int b = 0; b < batch; ++b)
            readPass(w, path, written, ledger);
        reads.push_back((cpuSeconds() - begin) / batch);
    }
}

Metrics
untracedRun(const Options& opts, const Workload& w, Ledger& ledger)
{
    // Set-up rounds and read samples interleave with the passes, so all
    // three sample the same stretch of host time.  The campaign reads
    // back each write pass's store after the pass; the in-process
    // workloads a store written, untimed, from their first pass, one
    // sample after each job of every later pass.
    const auto start = Clock::now();
    const int readsPerPass =
        !w.campaign() ? 0 : opts.smoke ? 1 : kReadSamples / w.minPasses;
    const int minReads = opts.smoke ? 2 : kReadSamples;
    std::vector<std::vector<double>> setups; // [round][job]
    std::vector<Pass> passes;
    std::vector<double> reads;
    const std::string storePath =
        opts.workDir + "/" + w.name +
        (w.campaign() ? "-write.jsonl" : "-read.jsonl");
    while (passes.size() < std::size_t(w.minPasses) ||
           (w.timed && !opts.smoke && since(start) < opts.seconds)) {
        if (setups.size() < std::size_t(kSetupRounds))
            setups.push_back(setupRound(w));
        const std::string tag = "pass" + std::to_string(passes.size());
        // Each campaign write pass appends to a fresh store.
        auto store = w.campaign() ? freshStore(storePath) : nullptr;
        const auto readAfterJob = [&] {
            readSamples(w, storePath, passes.front(), 1, reads, ledger);
        };
        Pass pass = runPass(w, store.get(), passes.size(),
                            w.campaign() || passes.empty() || opts.smoke
                                ? std::function<void()>()
                                : readAfterJob);
        if (store && store->size() != pass.outcomes.size())
            ledger.broken(tag + ": the store holds " +
                          std::to_string(store->size()) + " of " +
                          std::to_string(pass.outcomes.size()) +
                          " terminal records");
        store.reset();
        checkPass(tag, pass, ledger);
        if (passes.empty() && !w.campaign())
            writeStore(storePath, pass);
        else if (!passes.empty())
            comparePasses(tag, passes.front(), pass, w.sim(), ledger);
        passes.push_back(std::move(pass));
        readSamples(w, storePath,
                    w.campaign() ? passes.back() : passes.front(),
                    readsPerPass, reads, ledger);
    }
    while (setups.size() < std::size_t(opts.smoke ? 1 : kSetupRounds))
        setups.push_back(setupRound(w));
    if (reads.size() < std::size_t(minReads))
        readSamples(w, storePath,
                    w.campaign() ? passes.back() : passes.front(),
                    minReads - int(reads.size()), reads, ledger);
    if (w.sim() && !opts.smoke && opts.seed == kDefaultSeed &&
        !opts.golden.empty())
        checkGolden(opts.golden, w, passes.front(), ledger);

    // One pass's host time: in process, each job's median over the
    // passes, summed (jobs run one at a time); for a campaign, whose
    // jobs overlap, the median pass.
    const std::size_t n3 = w.plans[0].size(), n = w.jobs();
    std::vector<double> s3s, s4s, ops, walls;
    std::vector<std::vector<double>> jobSeconds;
    for (const Pass& pass : passes) {
        s3s.push_back(pass.suiteSeconds[0]);
        s4s.push_back(pass.suiteSeconds[1]);
        ops.push_back(double(pass.ops()));
        walls.push_back(pass.wallClock);
        jobSeconds.push_back(pass.jobSeconds);
    }
    const double s3 =
        w.campaign() ? median(s3s) : medianSum(jobSeconds, 0, n3);
    const double s4 =
        w.campaign() ? median(s4s) : medianSum(jobSeconds, n3, n);
    const double host = s3 + s4;

    Metrics metrics;
    put(metrics, "wall_s", host, "s");
    put(metrics, "splash3_s", s3, "s");
    put(metrics, "splash4_s", s4, "s");
    put(metrics, "sync_ops_per_s", ratio(median(ops), host), "1/s");
    put(metrics, "jobs_per_s", ratio(double(n), host), "1/s");
    put(metrics, "resume_s", quantile(reads, kReadQuantile), "s");
    put(metrics, "setup_s", medianSum(setups, 0, n), "s");
    put(metrics, "peak_rss_mb", peakRssMb(), "MiB");
    put(metrics, "ok_ratio",
        1.0 - ratio(double(ledger.failed()), double(ledger.attempted())),
        "ratio");
    char clock[64];
    std::snprintf(clock, sizeof clock, " pass_wall_clock_s=%.3f",
                  median(walls));
    label("passes=" + std::to_string(passes.size()) + " host_clock=" +
          (w.sim() ? "cpu" : "wall") +
          (w.pinsJobs() ? " jobs_pinned" : "") + clock +
          " setup_rounds=" + std::to_string(setups.size()) +
          " read_passes=" +
          std::to_string(reads.size() * std::size_t(readBatch(w))));
    return metrics;
}

Metrics
tracedRun(const Options& opts, const Workload& w, bool oversubscribed,
          Ledger& ledger)
{
    Tracer tracer;

    // The untraced reference pass, then its traced twin.
    const std::string storePath =
        opts.workDir + "/" + w.name + "-traced.jsonl";
    auto store = w.campaign() ? freshStore(storePath) : nullptr;
    const Pass untraced = runPass(w, store.get(), 0);
    store.reset();
    checkPass("untraced", untraced, ledger);

    Tally tally;
    const Pass traced = w.campaign()
                            ? tracedCampaignPass(w, tracer, storePath)
                            : tracedPass(w, tracer, false, tally);
    checkPass("traced", traced, ledger);
    comparePasses("traced", untraced, traced, w.sim(), ledger);

    Tally profiled;
    if (w.engine == EngineKind::Native && !w.campaign()) {
        const Pass pass = tracedPass(w, tracer, true, profiled);
        checkPass("profiled", pass, ledger);
    }

    Metrics metrics;
    const Tally none;
    const Tally& sim = w.sim() ? tally : none;
    put(metrics, "sim.host_s", sim.engineSeconds, "s");
    put(metrics, "sim.host_ns_per_op",
        1e9 * ratio(sim.engineSeconds, double(sim.ops)), "ns");
    put(metrics, "sim.ctx_switches_per_op",
        ratio(double(sim.usage.switches), double(sim.ops)), "count");
    put(metrics, "sim.sys_frac",
        ratio(sim.usage.sys, sim.usage.user + sim.usage.sys), "ratio");
    put(metrics, "sim.line_transfers_per_op",
        ratio(double(sim.lineTransfers), double(sim.ops)), "count");
    std::string perBenchmark;
    for (const std::string& name : suiteOrder()) {
        const auto it = sim.engineSecondsBy.find(name);
        put(metrics, "sim.host_s." + name,
            it == sim.engineSecondsBy.end() ? 0.0 : it->second, "s");
        if (w.sim()) {
            char text[64];
            std::snprintf(text, sizeof text, " %s=%.3f", name.c_str(),
                          ratio(double(tally.switchesBy[name]),
                                double(tally.opsBy[name])));
            perBenchmark += text;
        }
    }
    if (w.sim())
        label("ctx_switches_per_op" + perBenchmark);

    const Tally& native =
        w.engine == EngineKind::Native && !w.campaign() ? tally : none;
    put(metrics, "native.roi_s", native.roiSeconds, "s");
    put(metrics, "native.spawn_s",
        native.engineSeconds - native.roiSeconds, "s");
    put(metrics, "native.ns_per_op",
        oversubscribed ? 0.0
                       : 1e9 * ratio(native.roiSeconds, double(native.ops)),
        "ns");
    syncMetrics(profiled, oversubscribed, metrics);

    put(metrics, "core.setup_s", tally.setupSeconds, "s");
    put(metrics, "core.verify_s", tally.verifySeconds, "s");

    executorProbe(w, tracer, ledger, metrics);
    wireProbe(untraced, tracer, ledger, metrics);
    storeProbe(untraced, opts.workDir + "/" + w.name + "-probe.jsonl",
               tracer, ledger, metrics);
    put(metrics, "trace.overhead_frac",
        traced.host() / untraced.host() - 1.0, "ratio");

    const std::string problem = tracer.validate();
    if (!problem.empty())
        ledger.broken("trace: " + problem);
    const std::string tracePath = opts.workDir + "/" + w.name + "-seed" +
                                  std::to_string(opts.seed) +
                                  ".trace.json";
    if (!tracer.writeChromeTrace(tracePath))
        ledger.broken("cannot write " + tracePath);
    label("trace=" + tracePath + " spans=" +
          std::to_string(tracer.spans().size()));
    std::string self;
    for (const auto& [layer, seconds] : tracer.selfSeconds()) {
        char text[96];
        std::snprintf(text, sizeof text, " %s=%.6f", layer.c_str(),
                      seconds);
        self += text;
    }
    label("self_s" + self);
    return metrics;
}

void
printResult(const Ledger& ledger, const Metrics& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                ledger.correct() ? "true" : "false", ledger.attempted(),
                ledger.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace
} // namespace splashbench

int
main(int argc, char** argv)
{
    using namespace splashbench;
    const Options opts = parseOptions(argc, argv);
#ifndef __OPTIMIZE__
    usageError("refusing to measure a non-optimized build (build type " +
               std::string(SPLASHBENCH_BUILD_TYPE) + ")");
#endif
    splash::registerAllBenchmarks();
    std::filesystem::create_directories(opts.workDir);
    const Workload w = makeWorkload(opts);

    const int cpus = onlineCpus();
    const int nativeThreads =
        w.engine == splash::EngineKind::Native ? w.threads * w.slots : 0;
    const bool oversubscribed = nativeThreads > cpus;
    char scale[32];
    std::snprintf(scale, sizeof scale, "%g", w.scale);
    label("workload=" + w.name + " seed=" + std::to_string(opts.seed) +
          " scale=" + (w.scale > 0 ? std::string(scale) : "cli-default") +
          " threads=" + std::to_string(w.threads) +
          " slots=" + std::to_string(w.slots) +
          " jobs=" + std::to_string(w.jobs()) +
          " trace=" + (opts.trace ? "1" : "0") +
          (opts.smoke ? " size=smoke" : ""));
    label("host online_cpus=" + std::to_string(cpus) +
          " loadavg_start=" + loadAverage() +
          " build=" + SPLASHBENCH_BUILD_TYPE +
          (oversubscribed ? " oversubscribed" : ""));
    if (oversubscribed)
        label("oversubscribed: " + std::to_string(nativeThreads) +
              " native threads on " + std::to_string(cpus) +
              " CPUs; construct costs are withheld");

    const std::pair<double, double> ticks = cpuTicks();
    Ledger ledger;
    const Metrics metrics = opts.trace
                                ? tracedRun(opts, w, oversubscribed, ledger)
                                : untracedRun(opts, w, ledger);
    const auto [stolen, total] = cpuTicks();
    char steal[64];
    std::snprintf(steal, sizeof steal, " steal=%.3f",
                  ratio(stolen - ticks.first, total - ticks.second));
    label("host loadavg_end=" + loadAverage() + steal);
    printResult(ledger, metrics);
    return 0;
}

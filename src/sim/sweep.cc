#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/auditor.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace incast::sim {

namespace {

// Process-wide peak RSS in bytes (0 where unavailable). Linux reports
// ru_maxrss in kilobytes, macOS in bytes.
[[nodiscard]] std::uint64_t peak_rss_bytes_now() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

}  // namespace

const char* to_string(FailureCategory category) noexcept {
  switch (category) {
    case FailureCategory::kException: return "exception";
    case FailureCategory::kAudit: return "audit";
    case FailureCategory::kBudget: return "budget";
    case FailureCategory::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool SweepRunner::RunStats::failed(std::size_t index) const noexcept {
  const auto it = std::lower_bound(
      failures.begin(), failures.end(), index,
      [](const TaskFailure& f, std::size_t i) { return f.index < i; });
  return it != failures.end() && it->index == index;
}

bool SweepRunner::RunStats::has_result(std::size_t index) const noexcept {
  return !failed(index) && tasks[index].attempts > 0;
}

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_task_seed(std::uint64_t base_seed, std::uint64_t task_index) noexcept {
  // First round folds the index into the stream position, second round mixes
  // the result; both go through the full splitmix64 finalizer so adjacent
  // indices (the common case in a grid sweep) share no low-bit structure.
  std::uint64_t state = base_seed;
  state ^= splitmix64_next(task_index);
  return splitmix64_next(state);
}

SweepRunner::SweepRunner(int jobs) noexcept : jobs_{jobs} {
  if (jobs_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? static_cast<int>(hw) : 1;
  }
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One worker's task queue. The owner pops from the front (processing its
// share in rough index order, which keeps memory hot for adjacent grid
// cells); thieves steal from the back, minimizing contention with the
// owner. A plain mutex per deque is ample here: tasks are whole
// simulations (milliseconds to seconds each), so queue operations are
// vanishingly rare next to task work.
struct WorkerDeque {
  std::mutex mu;
  std::deque<std::size_t> tasks;
};

}  // namespace

namespace {

// Maps a task's exception onto the failure taxonomy, extracting the message.
FailureCategory classify_failure(const std::exception_ptr& ep, std::string& message) {
  try {
    std::rethrow_exception(ep);
  } catch (const RunCancelled& e) {
    message = e.what();
    return FailureCategory::kCancelled;
  } catch (const AuditFailure& e) {
    message = e.what();
    return FailureCategory::kAudit;
  } catch (const BudgetExceeded& e) {
    message = e.what();
    return FailureCategory::kBudget;
  } catch (const std::exception& e) {
    message = e.what();
    return FailureCategory::kException;
  } catch (...) {
    message = "unknown exception";
    return FailureCategory::kException;
  }
}

}  // namespace

void SweepRunner::execute(std::size_t n,
                          const std::function<void(std::size_t, TaskStats&)>& task) {
  stats_ = RunStats{};
  stats_.jobs = jobs_;
  stats_.tasks.resize(n);
  if (n == 0) return;

  const auto sweep_start = Clock::now();

  auto cancelled = [this] {
    return policy_.cancel != nullptr &&
           policy_.cancel->load(std::memory_order_relaxed);
  };

  auto run_one = [&](std::size_t index, int worker) {
    TaskStats& st = stats_.tasks[index];
    st.worker = worker;
    st.attempts = 1;
    const auto t0 = Clock::now();
    task(index, st);
    st.wall_ms = ms_between(t0, Clock::now());
  };

  // Quarantine machinery (fail_fast off): retries, the failure list, and
  // the mutex serializing record + on_failure callback.
  std::atomic<std::uint64_t> retries{0};
  std::mutex failures_mu;
  std::vector<TaskFailure> failures;

  auto run_quarantined = [&](std::size_t index, int worker) {
    TaskStats& st = stats_.tasks[index];
    const int max_attempts = std::max(policy_.max_attempts, 1);
    for (int attempt = 1;; ++attempt) {
      // Each attempt starts from clean stats — a partial failed attempt
      // must not leak event counts into the successful one.
      st = TaskStats{};
      st.worker = worker;
      st.attempts = attempt;
      const auto t0 = Clock::now();
      try {
        task(index, st);
        st.wall_ms = ms_between(t0, Clock::now());
        return;
      } catch (...) {
        st.wall_ms = ms_between(t0, Clock::now());
        std::string message;
        const FailureCategory category =
            classify_failure(std::current_exception(), message);
        if (category != FailureCategory::kCancelled && attempt < max_attempts &&
            !cancelled()) {
          retries.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        TaskFailure failure;
        failure.index = index;
        failure.seed = policy_.seed_of ? policy_.seed_of(index) : 0;
        failure.category = category;
        failure.message = std::move(message);
        failure.attempts = attempt;
        {
          std::lock_guard<std::mutex> lock(failures_mu);
          if (policy_.on_failure) policy_.on_failure(failure);
          failures.push_back(std::move(failure));
        }
        return;
      }
    }
  };

  if (jobs_ == 1 || n == 1) {
    // Inline sequential path: no threads, no synchronization — exactly the
    // historical behavior of the callers this class replaced.
    for (std::size_t i = 0; i < n; ++i) {
      if (cancelled()) {
        stats_.tasks_not_run = n - i;
        break;
      }
      if (policy_.fail_fast) {
        run_one(i, 0);
      } else {
        run_quarantined(i, 0);
      }
    }
  } else {
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(jobs_), n));
    std::vector<WorkerDeque> deques(static_cast<std::size_t>(workers));
    // Round-robin initial distribution: worker w starts with tasks
    // w, w+workers, w+2*workers, ... so every worker begins with work and
    // stealing only happens once load skews.
    for (std::size_t i = 0; i < n; ++i) {
      deques[i % static_cast<std::size_t>(workers)].tasks.push_back(i);
    }

    std::atomic<std::uint64_t> steals{0};
    std::mutex error_mu;
    std::exception_ptr first_error;

    auto worker_loop = [&](int me) {
      for (;;) {
        // Cooperative cancellation: stop picking up new work; whatever is
        // left in the deques is counted as not run after the join.
        if (cancelled()) return;
        std::size_t index = 0;
        bool found = false;
        {
          // Own deque first, front pop.
          WorkerDeque& mine = deques[static_cast<std::size_t>(me)];
          std::lock_guard<std::mutex> lock(mine.mu);
          if (!mine.tasks.empty()) {
            index = mine.tasks.front();
            mine.tasks.pop_front();
            found = true;
          }
        }
        if (!found) {
          // Steal from the back of the first non-empty victim. Tasks never
          // spawn tasks, so once every deque is empty there is no more work
          // and the worker can retire.
          for (int v = 1; v < workers && !found; ++v) {
            WorkerDeque& victim = deques[static_cast<std::size_t>((me + v) % workers)];
            std::lock_guard<std::mutex> lock(victim.mu);
            if (!victim.tasks.empty()) {
              index = victim.tasks.back();
              victim.tasks.pop_back();
              found = true;
              steals.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        if (!found) return;
        if (policy_.fail_fast) {
          try {
            run_one(index, me);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
        } else {
          run_quarantined(index, me);
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers) - 1);
    for (int w = 1; w < workers; ++w) threads.emplace_back(worker_loop, w);
    worker_loop(0);  // the calling thread is worker 0
    for (auto& t : threads) t.join();

    for (const WorkerDeque& d : deques) stats_.tasks_not_run += d.tasks.size();
    stats_.steals = steals.load(std::memory_order_relaxed);
    if (first_error) std::rethrow_exception(first_error);
  }

  // Quarantine bookkeeping: failures sorted by index so the output is
  // deterministic regardless of which worker recorded what first.
  std::sort(failures.begin(), failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) { return a.index < b.index; });
  stats_.failures = std::move(failures);
  stats_.retries = retries.load(std::memory_order_relaxed);

  stats_.wall_ms = ms_between(sweep_start, Clock::now());
  stats_.peak_rss_bytes = peak_rss_bytes_now();
  for (const TaskStats& st : stats_.tasks) {
    stats_.total_events += st.events;
    for (std::size_t c = 0; c < kNumEventCategories; ++c) {
      stats_.events_by_category[c] += st.events_by_category[c];
    }
    stats_.peak_events_pending =
        std::max(stats_.peak_events_pending, st.peak_events_pending);
    stats_.slab_high_water = std::max(stats_.slab_high_water, st.slab_high_water);
  }
}

}  // namespace incast::sim

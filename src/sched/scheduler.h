#ifndef ABR_SCHED_SCHEDULER_H_
#define ABR_SCHED_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "sched/flat_queue.h"
#include "sched/request.h"
#include "util/types.h"

namespace abr::sched {

/// Disk-queue scheduling policy. The driver enqueues outstanding requests
/// and, each time the disk becomes free, asks the scheduler which request
/// to start given the current head position. The measured SunOS driver uses
/// SCAN (Section 5.2); FCFS, SSTF and C-LOOK are provided for the scheduler
/// ablation benchmark.
///
/// The cylinder-ordered policies share one FlatRequestQueue (flat sorted
/// key/request arrays with lazy deletion) instead of a per-policy
/// std::multimap; the multimap originals live on under tests/oracles as
/// differential-test oracles. size() is always derived from the underlying
/// container, so it cannot drift from the queue's actual contents.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Adds a request to the queue.
  virtual void Enqueue(const IoRequest& request) = 0;

  /// Adds a run of requests at once; exactly equivalent to calling
  /// Enqueue() on each element in order. The cylinder-ordered policies
  /// override this with one merged sorted-run build (FlatRequestQueue::
  /// InsertBatch) so a whole submit burst skips the per-request array
  /// insertions.
  virtual void EnqueueBatch(const IoRequest* requests, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Enqueue(requests[i]);
  }

  /// Removes and returns the next request to service given the head's
  /// current cylinder, or nullopt if the queue is empty.
  virtual std::optional<IoRequest> Dequeue(Cylinder head_cylinder) = 0;

  /// Number of queued requests.
  virtual std::size_t size() const = 0;

  /// True iff no requests are queued.
  bool empty() const { return size() == 0; }

  /// Policy name for reports.
  virtual const char* name() const = 0;
};

/// Identifies a scheduling policy; used by configs and benches.
enum class SchedulerKind { kFcfs, kSstf, kScan, kCLook };

/// Returns the policy's display name ("FCFS", "SSTF", "SCAN", "C-LOOK").
const char* SchedulerKindName(SchedulerKind kind);

/// First-come-first-served: requests are serviced in arrival order.
class FcfsScheduler : public Scheduler {
 public:
  /// `sectors_per_cylinder` is unused but kept for interface uniformity.
  explicit FcfsScheduler(std::int64_t sectors_per_cylinder);

  void Enqueue(const IoRequest& request) override;
  void EnqueueBatch(const IoRequest* requests, std::size_t n) override;
  std::optional<IoRequest> Dequeue(Cylinder head_cylinder) override;
  std::size_t size() const override { return queue_.size(); }
  const char* name() const override { return "FCFS"; }

 private:
  std::deque<IoRequest> queue_;
};

/// Shortest-seek-time-first: services the queued request whose cylinder is
/// closest to the head. Ties break toward lower cylinders.
class SstfScheduler : public Scheduler {
 public:
  explicit SstfScheduler(std::int64_t sectors_per_cylinder);

  void Enqueue(const IoRequest& request) override;
  void EnqueueBatch(const IoRequest* requests, std::size_t n) override;
  std::optional<IoRequest> Dequeue(Cylinder head_cylinder) override;
  std::size_t size() const override { return queue_.size(); }
  const char* name() const override { return "SSTF"; }

 private:
  std::int64_t sectors_per_cylinder_;
  FlatRequestQueue queue_;
};

/// SCAN (elevator): the head sweeps in one direction servicing requests in
/// cylinder order until none remain ahead of it, then reverses. This is the
/// policy of the modified SunOS driver.
class ScanScheduler : public Scheduler {
 public:
  explicit ScanScheduler(std::int64_t sectors_per_cylinder);

  void Enqueue(const IoRequest& request) override;
  void EnqueueBatch(const IoRequest* requests, std::size_t n) override;
  std::optional<IoRequest> Dequeue(Cylinder head_cylinder) override;
  std::size_t size() const override { return queue_.size(); }
  const char* name() const override { return "SCAN"; }

 private:
  std::int64_t sectors_per_cylinder_;
  FlatRequestQueue queue_;
  bool sweeping_up_ = true;
};

/// C-LOOK: services requests in ascending cylinder order; when none remain
/// above the head, jumps back to the lowest-cylinder request.
class CLookScheduler : public Scheduler {
 public:
  explicit CLookScheduler(std::int64_t sectors_per_cylinder);

  void Enqueue(const IoRequest& request) override;
  void EnqueueBatch(const IoRequest* requests, std::size_t n) override;
  std::optional<IoRequest> Dequeue(Cylinder head_cylinder) override;
  std::size_t size() const override { return queue_.size(); }
  const char* name() const override { return "C-LOOK"; }

 private:
  std::int64_t sectors_per_cylinder_;
  FlatRequestQueue queue_;
};

/// Factory for the policy identified by `kind`.
std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind,
                                         std::int64_t sectors_per_cylinder);

}  // namespace abr::sched

#endif  // ABR_SCHED_SCHEDULER_H_

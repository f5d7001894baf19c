#include "host_speed.hpp"

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <vector>

namespace tnb::bench::host_speed {
namespace {

/// The reference kernel's reference time. It only fixes the scale: on the
/// machine the benchmark was written on (4-vCPU Xeon VM with AVX-512,
/// GCC 12, RelWithDebInfo) the kernel took 2.6-6.5 us, and a run's median
/// speed read 0.6-1.3, so reference seconds stay close to wall seconds.
constexpr double kReferenceKernelS = 3.6e-6;
/// Requested sampling period in CPU time; the kernel's tick rounds it up.
constexpr long kPeriodUs = 2000;
/// Room for about ten minutes of samples at a 4 ms tick.
constexpr std::size_t kCapacity = std::size_t{1} << 17;

struct Sample {
  std::int64_t t_ns;  ///< steady_clock when the kernel started
  float ref_speed;    ///< kReferenceKernelS over the kernel's time
};

Sample g_samples[kCapacity];
std::atomic<std::size_t> g_count{0};

// 20480 multiply-adds over two 2 KiB arrays that stay in L1: bound by the
// core's arithmetic throughput, which is what a tenant on the other
// hyperthread takes away. (A serial dependency chain barely notices one.)
alignas(64) float g_a[512];
alignas(64) float g_b[512];

void reference_kernel() {
  for (int r = 0; r < 40; ++r) {
    for (int i = 0; i < 512; ++i) g_a[i] = g_a[i] * g_b[i] + g_b[i];
  }
}

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

void on_tick(int) {
  const int saved_errno = errno;
  const std::size_t n = g_count.load(std::memory_order_relaxed);
  if (n < kCapacity) {
    const Clock::time_point t0 = Clock::now();
    reference_kernel();
    const double took =
        std::chrono::duration<double>(Clock::now() - t0).count();
    g_samples[n] = {ns(t0), static_cast<float>(kReferenceKernelS / took)};
    g_count.store(n + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

bool set_timer(long period_us) {
  const itimerval it{{0, period_us}, {0, period_us}};
  return setitimer(ITIMER_PROF, &it, nullptr) == 0;
}

}  // namespace

bool start() {
  std::fill(std::begin(g_a), std::end(g_a), 0.5f);
  std::fill(std::begin(g_b), std::end(g_b), 0.5f);
  struct sigaction sa {};
  sa.sa_handler = on_tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  return sigaction(SIGPROF, &sa, nullptr) == 0 && set_timer(kPeriodUs);
}

void stop() { set_timer(0); }

double speed(Clock::time_point t0, Clock::time_point t1) {
  const std::size_t n = g_count.load(std::memory_order_acquire);
  if (n == 0) return std::nan("");
  const Sample* first = g_samples;
  const Sample* last = g_samples + n;
  const auto by_time = [](const Sample& s, std::int64_t t) {
    return s.t_ns < t;
  };
  const Sample* lo = std::lower_bound(first, last, ns(t0), by_time);
  const Sample* hi = std::lower_bound(lo, last, ns(t1), by_time);
  if (lo == hi) {
    // No sample inside: the nearest one on either side.
    if (lo == last) return (lo - 1)->ref_speed;
    if (lo == first) return lo->ref_speed;
    const bool after_closer = lo->t_ns - ns(t1) < ns(t0) - (lo - 1)->t_ns;
    return after_closer ? lo->ref_speed : (lo - 1)->ref_speed;
  }
  double sum = 0.0;
  for (const Sample* s = lo; s != hi; ++s) sum += s->ref_speed;
  return sum / static_cast<double>(hi - lo);
}

double ref_s(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count() * speed(t0, t1);
}

std::size_t samples() { return g_count.load(std::memory_order_acquire); }

double median_speed() {
  const std::size_t n = samples();
  if (n == 0) return std::nan("");
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = g_samples[i].ref_speed;
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  return v[n / 2];
}

}  // namespace tnb::bench::host_speed

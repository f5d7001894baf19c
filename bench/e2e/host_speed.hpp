// Host-speed meter: turns wall time on a shared host into reference seconds.
//
// On a shared host, another tenant on the same physical core slows the
// benchmark's code by up to two thirds, in bursts of tens of milliseconds
// and in phases of seconds to minutes. CPU time does not show it (the
// thread is running, only slower), so wall and CPU time alike spread by a
// quarter between runs of one commit. The meter samples the slowdown where
// it happens: every few milliseconds of CPU time a SIGPROF handler times a
// fixed throughput-bound reference kernel on the benchmark's own thread.
// The speed of an interval is the mean, over the samples inside it, of the
// kernel's reference time over its measured time; the interval's reference
// seconds are its wall time times that speed — what it would have taken
// had the host run the thread at the reference speed throughout. Code doing
// the same work reads about the same reference time whatever the host was
// doing meanwhile (README.md, Findings, says how closely).
#pragma once

#include <chrono>
#include <cstddef>

namespace tnb::bench::host_speed {

using Clock = std::chrono::steady_clock;

/// Starts sampling for the rest of the process. Returns false if the
/// profiling timer cannot be installed.
bool start();
/// Stops sampling; the samples taken so far stay readable.
void stop();

/// Mean speed over [t0, t1]: 1 where the reference kernel ran in its
/// reference time, 0.6 where it took two thirds longer. An interval holding
/// no sample takes the sample nearest to it; NaN before the first sample.
double speed(Clock::time_point t0, Clock::time_point t1);

/// Reference seconds of [t0, t1]: wall time times speed(t0, t1).
double ref_s(Clock::time_point t0, Clock::time_point t1);

inline double ref_since(Clock::time_point t0) {
  return ref_s(t0, Clock::now());
}

/// Samples taken so far.
std::size_t samples();

/// Median speed over every sample taken so far.
double median_speed();

}  // namespace tnb::bench::host_speed

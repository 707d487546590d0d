/* SIGPROF stack sampler for benchmarks/native_profile.py.
 *
 * Loaded with ctypes. sampler_start() arms a POSIX timer on
 * CLOCK_MONOTONIC that raises SIGPROF at the asked interval; at every
 * signal the handler stores one backtrace() of the interrupted thread
 * plus the current value of sampler_phase, which native_profile.py sets
 * around the phases it wants told apart. Samples past the buffer are
 * counted, not stored. native_profile.py reads the buffers and
 * symbolizes the frames.
 *
 * Why a wall-clock timer: ITIMER_PROF, and timer_create on the process or
 * thread CPU-time clock, expire only at the kernel's scheduler tick (250
 * Hz on a 2-vCPU Linux container, so one sample per 4 ms of CPU whatever
 * interval is asked for); CLOCK_MONOTONIC expires at the asked interval.
 * The profiled run is CPU-bound, so it is on the CPU for its wall time,
 * and expiries that fall while it is descheduled coalesce into one
 * signal: the samples still land on its CPU time. */

#include <execinfo.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

volatile int sampler_phase;
int sampler_count, sampler_dropped, sampler_depth_max;
void **sampler_frames; /* sampler_count rows of sampler_depth_max frames */
int *sampler_depths, *sampler_phases;
static int capacity;
static timer_t timer;
static int armed;

static void on_prof(int sig)
{
    (void)sig;
    if (sampler_count >= capacity) {
        sampler_dropped++;
        return;
    }
    sampler_depths[sampler_count] = backtrace(
        sampler_frames + (size_t)sampler_count * sampler_depth_max,
        sampler_depth_max);
    sampler_phases[sampler_count++] = sampler_phase;
}

void sampler_stop(void)
{
    if (armed) {
        timer_delete(timer);
        armed = 0;
    }
    signal(SIGPROF, SIG_IGN);
}

int sampler_start(int interval_us, int max_samples, int depth)
{
    struct sigaction sa;
    struct sigevent sev;
    struct itimerspec every;
    void *warm[2];

    sampler_stop();
    backtrace(warm, 2); /* loads the unwinder outside the handler */
    free(sampler_frames);
    free(sampler_depths);
    free(sampler_phases);
    capacity = max_samples;
    sampler_depth_max = depth;
    sampler_count = sampler_dropped = 0;
    sampler_frames = calloc((size_t)max_samples * depth, sizeof(void *));
    sampler_depths = calloc(max_samples, sizeof(int));
    sampler_phases = calloc(max_samples, sizeof(int));
    if (!sampler_frames || !sampler_depths || !sampler_phases)
        return -1;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) < 0)
        return -1;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) < 0)
        return -1;
    armed = 1;
    every.it_interval.tv_sec = interval_us / 1000000;
    every.it_interval.tv_nsec = (long)(interval_us % 1000000) * 1000;
    every.it_value = every.it_interval;
    return timer_settime(timer, 0, &every, NULL);
}

/* SIGPROF stack sampler for benchmarks/native_profile.py.
 *
 * Loaded with ctypes. sampler_start() arms ITIMER_PROF; every tick the
 * handler stores one backtrace() of the interrupted thread plus the
 * current value of sampler_phase, which native_profile.py sets around the
 * phases it wants told apart. Samples past the buffer are counted, not
 * stored. native_profile.py reads the buffers and symbolizes the frames. */

#include <execinfo.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

volatile int sampler_phase;
int sampler_count, sampler_dropped, sampler_depth_max;
void **sampler_frames; /* sampler_count rows of sampler_depth_max frames */
int *sampler_depths, *sampler_phases;
static int capacity;

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

int sampler_start(int interval_us, int max_samples, int depth)
{
    struct sigaction sa;
    struct itimerval tv = {{0, interval_us}, {0, interval_us}};
    void *warm[2];

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
    return setitimer(ITIMER_PROF, &tv, NULL);
}

void sampler_stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
}

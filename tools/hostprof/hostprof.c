/* hostprof: a SIGPROF stack sampler for hosts without `perf`.
 *
 *   gcc -O2 -shared -fPIC -o hostprof.so tools/hostprof/hostprof.c
 *   HOSTPROF_OUT=prof.txt LD_PRELOAD=$PWD/hostprof.so <release binary> <args>
 *   python3 tools/hostprof/report.py prof.txt
 *
 * Every HOSTPROF_HZ-th of a CPU second (997 Hz, process-wide
 * ITIMER_PROF) the handler records a backtrace() into a preallocated
 * buffer; at exit the samples are written as one line of hex return
 * addresses each, innermost frame first, followed by the file-backed lines
 * of /proc/self/maps so the report can undo the load address. Needs frame pointers or
 * unwind tables and line tables in the profiled binary: this workspace's
 * release profile has both (`debug = "line-tables-only"`).
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define HOSTPROF_HZ 997
#define MAX_DEPTH 48
#define MAX_SAMPLES (1 << 18)

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile int n_samples;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depth[i] = (unsigned char)backtrace(frames[i], MAX_DEPTH);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.txt", "w");
    if (!out)
        return;
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    fprintf(out, "# hostprof samples=%d dropped=%d\n", n, n_samples - n);
    for (int i = 0; i < n; i++) {
        /* Frames 0 and 1 are this handler and the signal trampoline. */
        for (int d = 2; d < depth[i]; d++)
            fprintf(out, "%s%lx", d > 2 ? " " : "", (unsigned long)frames[i][d]);
        fputc('\n', out);
    }
    fputs("# maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        if (strchr(line, '/'))
            fputs(line, out);
    if (maps)
        fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* first call loads libgcc: not async-signal-safe */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv = {{0, 1000000 / HOSTPROF_HZ}, {0, 1000000 / HOSTPROF_HZ}};
    setitimer(ITIMER_PROF, &tv, NULL);
    atexit(dump);
}

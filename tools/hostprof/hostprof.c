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
 *
 * HOSTPROF_MALLOC=N samples heap calls instead of CPU time: a backtrace
 * at every Nth call to malloc, calloc or realloc (process-wide; the three
 * calls the benchmark's allocs_per_event counts), innermost frame the
 * caller of the allocator, in the same dump format. report.py reads it
 * unchanged; its shares are then shares of heap calls, not of time.
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

/* Frames 0 and 1 of every sample are dropped in the dump: in a signal,
 * this function and the trampoline; in a heap call, this function and
 * the allocator entry point below. Never inlined, so both hold. */
static __attribute__((noinline)) void take_sample(void) {
    int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depth[i] = (unsigned char)backtrace(frames[i], MAX_DEPTH);
}

static void on_prof(int sig) {
    (void)sig;
    take_sample();
}

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

static unsigned long malloc_every; /* HOSTPROF_MALLOC; 0 = time samples */
static unsigned long heap_calls;
static __thread int in_sample __attribute__((tls_model("initial-exec"))); /* backtrace() may allocate */

static inline void on_heap_call(void) {
    if (!malloc_every || in_sample)
        return;
    if (__atomic_add_fetch(&heap_calls, 1, __ATOMIC_RELAXED) % malloc_every)
        return;
    in_sample = 1;
    take_sample();
    in_sample = 0;
}

void *malloc(size_t n) {
    on_heap_call();
    return __libc_malloc(n);
}

void *calloc(size_t n, size_t size) {
    on_heap_call();
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t n) {
    on_heap_call();
    return __libc_realloc(p, n);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    malloc_every = 0;
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.txt", "w");
    if (!out)
        return;
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    fprintf(out, "# hostprof samples=%d dropped=%d\n", n, n_samples - n);
    for (int i = 0; i < n; i++) {
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
    atexit(dump);
    const char *every = getenv("HOSTPROF_MALLOC");
    if (every && atol(every) > 0) {
        malloc_every = (unsigned long)atol(every);
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv = {{0, 1000000 / HOSTPROF_HZ}, {0, 1000000 / HOSTPROF_HZ}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

/* A sampling profiler for hosts without perf: an LD_PRELOAD shim that
 * records the interrupted instruction pointer on every SIGPROF tick and
 * writes the samples, with the process's memory map, to $PROF_OUT at
 * exit. sym.py turns the file into a flat profile. Recipe: ARCHITECTURE.md,
 * "Profiling without perf".
 *
 *   gcc -O2 -shared -fPIC -o /root/scratch/prof.so tools/prof/prof.c
 *   PROF_OUT=/root/scratch/prof.txt LD_PRELOAD=/root/scratch/prof.so <binary> <args>
 *
 * x86-64 Linux only (REG_RIP). ITIMER_PROF counts the CPU time of the
 * whole process and the kernel delivers each tick to a thread that is
 * running, so a pool's workers are sampled in proportion to their work.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)

static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long count;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    /* Two threads may tick at once: claim the slot atomically. */
    unsigned long slot = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        samples[slot] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

static void write_out(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    unsigned long n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void install(void) {
    struct sigaction action = {0};
    action.sa_sigaction = on_tick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    /* Asked for 500 us; the kernel rounds up to its own tick (4 ms here). */
    struct itimerval every = {{0, 500}, {0, 500}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(write_out);
}

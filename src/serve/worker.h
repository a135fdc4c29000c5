#pragma once
// The worker side of the process-isolation protocol.
//
// worker_loop_main runs inside a warm-pool child: for each TaskRequest
// frame it applies the job's rlimit sandbox, runs the guarded reduction on
// the requested substrate — streaming every save-every-k checkpoint blob
// back over the response pipe as it is produced — and ships the RunReport
// as a result frame. All of pfact's actual failure handling lives OUTSIDE
// this process: a worker that dies (SIGSEGV, OOM under RLIMIT_AS, SIGXCPU,
// a supervisor watchdog SIGKILL) takes nothing with it but its own address
// space, and the checkpoints already on the wire let the supervisor hand
// a successor the state to resume where it stopped.
//
// Fork-safety: the guarded drivers are single-threaded by construction, so
// the child never touches ThreadPool::global() — a forked child inherits
// only the forking thread, and any wait on pool threads that do not exist
// would deadlock. This function must stay free of thread-pool use.

namespace pfact::serve {

// Protocol-failure exit codes, distinct from kKillPlanExitCode (wire.h) so
// the supervisor's nonzero-exit diagnostics name the real cause.
inline constexpr int kWorkerExitBadRequestFrame = 10;  // unreadable request
inline constexpr int kWorkerExitBadRequestBody = 11;   // undecodable payload
inline constexpr int kWorkerExitResultWriteFailed = 12;

// Loops over request frames on the given pipe pair, one job per frame, each
// answered by checkpoint frames plus one result frame. A clean EOF on the
// request pipe — the pool retiring the slot — returns 0; an unreadable or
// undecodable request returns the protocol exit codes above. rlimit
// sandboxes apply per job, which is why the pool retires a slot after any
// rlimited job: RLIMIT_CPU is cumulative per process and a hard limit can
// never be raised back. The caller — the forked child — must pass the
// return value straight to _exit().
int worker_loop_main(int request_fd, int response_fd);

// Closes every descriptor above stdio except `keep_a` and `keep_b` (pass -1
// to keep nothing more). A freshly forked child calls this first: it
// inherits whatever the parent had open at fork time — other pools' and
// other slots' pipe ends included — and a duplicate write end held here
// would keep that pipe's reader from ever seeing EOF. Allocation-free, so
// it is safe between fork() and _exit() in a multithreaded parent.
void close_fds_except(int keep_a, int keep_b);

}  // namespace pfact::serve

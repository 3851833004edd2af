/* C stubs for lib/net: an edge-triggered epoll binding (the one poller
 * backend; lib/net runs on Linux only) and a RLIMIT_NOFILE raiser so
 * the echo bench can open thousands of sockets without asking the user
 * to fiddle with ulimit.
 *
 * Every registration is EPOLLET: the kernel reports a readiness rise
 * once, and lib/net keeps what no parked waiter took as a pending bit
 * in user space (interest.ml).  An fd is registered once, at its first
 * wait; ADD and MOD both re-check readiness, so a registration made or
 * modified while the fd is already ready is reported by the next
 * epoll_wait.  epoll_ctl is thread-safe, so a waiter registers from its
 * own worker while another worker may be waiting in epoll_wait.
 *
 * The epoll_wait stub releases the runtime lock for the syscall (the
 * worker waiting there must not stall its domain's KC threads) and
 * writes the events back after reacquiring.
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/threads.h>

#include <errno.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

/* Event bits shared with poller.ml -- keep in sync. */
#define ULP_NET_IN 1
#define ULP_NET_OUT 2
#define ULP_NET_ERR 4

/* ulp_net_epoll_create () -> epfd (CLOEXEC); raises on failure. */
CAMLprim value ulp_net_epoll_create(value v_unit)
{
  (void)v_unit;
#ifdef __linux__
  int epfd = epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) caml_failwith("ulp_net_epoll_create: epoll_create1 failed");
  return Val_int(epfd);
#else
  caml_failwith("ulp_net_epoll_create: lib/net needs epoll (Linux)");
#endif
}

/* ulp_net_epoll_ctl epfd op fd bits
 *   op: 0 = ADD, 1 = MOD, 2 = DEL
 *   bits: ULP_NET_IN / ULP_NET_OUT; the registration is EPOLLET
 * Returns true on success, false when the fd has no registration to
 * change or cannot have one (EBADF, ENOENT, EEXIST, EPERM).  Callable
 * from any thread: it neither allocates nor raises. */
CAMLprim value ulp_net_epoll_ctl(value v_epfd, value v_op, value v_fd,
                                 value v_bits)
{
#ifdef __linux__
  struct epoll_event ev;
  int op;
  long bits = Long_val(v_bits);

  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLET;
  if (bits & ULP_NET_IN) ev.events |= EPOLLIN;
  if (bits & ULP_NET_OUT) ev.events |= EPOLLOUT;
  ev.data.fd = (int)Long_val(v_fd);

  switch (Int_val(v_op)) {
  case 0: op = EPOLL_CTL_ADD; break;
  case 1: op = EPOLL_CTL_MOD; break;
  default: op = EPOLL_CTL_DEL; break;
  }
  return Val_bool(epoll_ctl(Int_val(v_epfd), op, (int)Long_val(v_fd), &ev) == 0);
#else
  /* declared [@@noalloc] on the OCaml side: report, never raise */
  (void)v_epfd; (void)v_op; (void)v_fd; (void)v_bits;
  return Val_false;
#endif
}

/* ulp_net_epoll_wait epfd out_fds out_revents maxevents timeout_ms
 *   out_fds / out_revents: int arrays, length >= maxevents; the first
 *   n entries are written (fd, ULP_NET bits).
 * Returns n ready entries; -1 on EINTR (caller retries).  Up to
 * ULP_NET_STACK_EVENTS the kernel writes into a stack buffer: the
 * reactor calls this every round, and a malloc/free pair per call buys
 * nothing at the default output size. */
#define ULP_NET_STACK_EVENTS 256

CAMLprim value ulp_net_epoll_wait(value v_epfd, value v_fds, value v_revents,
                                  value v_max, value v_timeout_ms)
{
#ifdef __linux__
  CAMLparam5(v_epfd, v_fds, v_revents, v_max, v_timeout_ms);
  mlsize_t max = (mlsize_t)Long_val(v_max);
  struct epoll_event stack_evs[ULP_NET_STACK_EVENTS];
  struct epoll_event *evs = stack_evs;
  int n;
  mlsize_t i;

  if (max == 0 || Wosize_val(v_fds) < max || Wosize_val(v_revents) < max)
    caml_invalid_argument("ulp_net_epoll_wait: maxevents exceeds array length");

  if (max > ULP_NET_STACK_EVENTS) {
    evs = (struct epoll_event *)malloc(max * sizeof(struct epoll_event));
    if (evs == NULL) caml_raise_out_of_memory();
  }

  caml_release_runtime_system();
  n = epoll_wait(Int_val(v_epfd), evs, (int)max, Int_val(v_timeout_ms));
  caml_acquire_runtime_system();

  if (n < 0) {
    int err = errno;
    if (evs != stack_evs) free(evs);
    if (err == EINTR) CAMLreturn(Val_int(-1));
    caml_invalid_argument("ulp_net_epoll_wait: epoll_wait failed");
  }

  for (i = 0; i < (mlsize_t)n; i++) {
    long rev = 0;
    if (evs[i].events & (EPOLLIN | EPOLLHUP)) rev |= ULP_NET_IN;
    if (evs[i].events & EPOLLOUT) rev |= ULP_NET_OUT;
    if (evs[i].events & EPOLLERR) rev |= ULP_NET_ERR;
    Store_field(v_fds, i, Val_long(evs[i].data.fd));
    Store_field(v_revents, i, Val_long(rev));
  }
  if (evs != stack_evs) free(evs);
  CAMLreturn(Val_int(n));
#else
  (void)v_epfd; (void)v_fds; (void)v_revents; (void)v_max; (void)v_timeout_ms;
  caml_failwith("ulp_net_epoll_wait: lib/net needs epoll (Linux)");
#endif
}

/* ulp_net_raise_nofile want
 * Raise the soft RLIMIT_NOFILE toward [want].  Privileged processes
 * (CAP_SYS_RESOURCE) may raise the hard limit too, so try that first
 * when [want] exceeds it; on EPERM fall back to clamping at the hard
 * limit.  Returns the resulting soft limit, or -1 if it cannot even
 * be read. */
CAMLprim value ulp_net_raise_nofile(value v_want)
{
  struct rlimit rl;
  rlim_t want = (rlim_t)Long_val(v_want);

  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_long(-1);
  if (rl.rlim_cur < want) {
    if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max) {
      struct rlimit grown = rl;
      grown.rlim_cur = want;
      grown.rlim_max = want;
      if (setrlimit(RLIMIT_NOFILE, &grown) != 0) {
        /* unprivileged: the hard limit stands, clamp to it */
        rl.rlim_cur = rl.rlim_max;
        (void)setrlimit(RLIMIT_NOFILE, &rl);
      }
    } else {
      rl.rlim_cur = want;
      (void)setrlimit(RLIMIT_NOFILE, &rl);
    }
    if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_long(-1);
  }
  if (rl.rlim_cur > (rlim_t)Max_long) return Val_long(Max_long);
  return Val_long((long)rl.rlim_cur);
}

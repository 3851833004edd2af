/* C stubs for Parker: a one-permit parker (pthread mutex + cond +
 * permit) and each OS thread's owed wake.
 *
 * A worker and the KCs it leases are systhreads of one domain: only
 * the holder of the domain's runtime lock runs OCaml.  A wake aimed at
 * such a thread, sent while the waker still holds that lock, wakes a
 * thread that can only block again on the lock.  So inside
 * [Parker.deferring] a wake aimed at a thread that last parked on the
 * caller's domain is not sent but owed: it sits in the calling
 * thread's [owed] slot until that thread parks ([park] sends it right
 * after releasing the runtime lock) or flushes it.  The slot holds one
 * wake; any further wake is sent at once.
 *
 * The parker lives in malloc'd memory behind a custom block.  The block
 * and an owed slot each hold one reference, so a finalized parker that
 * is still owed a wake is freed only once the wake is sent.
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/domain_state.h>
#include <caml/threads.h>

#include <pthread.h>
#include <stdatomic.h>
#include <stdlib.h>

struct parker {
  pthread_mutex_t m;
  pthread_cond_t c;
  int permit;           /* guarded by m */
  atomic_int domain;    /* unique id of the domain its owner last parked on */
  atomic_int refs;      /* the custom block, plus an owed slot holding it */
};

static __thread struct parker *owed = NULL;
static __thread int deferring = 0;

#define Parker_val(v) (*((struct parker **)Data_custom_val(v)))

static void parker_release(struct parker *p)
{
  if (atomic_fetch_sub(&p->refs, 1) == 1) {
    pthread_mutex_destroy(&p->m);
    pthread_cond_destroy(&p->c);
    free(p);
  }
}

static void parker_finalize(value v) { parker_release(Parker_val(v)); }

static struct custom_operations parker_ops = {
  "ulp.fiber_rt.parker",
  parker_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

/* Set the permit and signal.  The signal follows the unlock, so the
 * woken thread does not wake only to block on [m]. */
static void wake_parker(struct parker *p)
{
  pthread_mutex_lock(&p->m);
  p->permit = 1;
  pthread_mutex_unlock(&p->m);
  pthread_cond_signal(&p->c);
}

/* Send the calling thread's owed wake, if any. */
static void send_owed(void)
{
  struct parker *p = owed;
  if (p != NULL) {
    owed = NULL;
    wake_parker(p);
    parker_release(p);
  }
}

CAMLprim value ulp_parker_create(value unit)
{
  struct parker *p = malloc(sizeof *p);
  value v;
  if (p == NULL) caml_raise_out_of_memory();
  pthread_mutex_init(&p->m, NULL);
  pthread_cond_init(&p->c, NULL);
  p->permit = 0;
  atomic_init(&p->domain, -1);
  atomic_init(&p->refs, 1);
  v = caml_alloc_custom(&parker_ops, sizeof(struct parker *), 0, 1);
  Parker_val(v) = p;
  return v;
}

/* noalloc: never releases the runtime lock.  [m] is only ever held for
 * a few instructions, so taking it here cannot stall the domain. */
CAMLprim value ulp_parker_unpark(value v)
{
  struct parker *p = Parker_val(v);
  if (deferring && owed == NULL
      && atomic_load(&p->domain) == Caml_state->unique_id) {
    atomic_fetch_add(&p->refs, 1);
    owed = p;
  } else {
    wake_parker(p);
  }
  return Val_unit;
}

CAMLprim value ulp_parker_park(value v)
{
  CAMLparam1(v);
  struct parker *p = Parker_val(v);
  atomic_store(&p->domain, Caml_state->unique_id);
  caml_enter_blocking_section();
  /* the runtime lock is free now: the owed thread can run at once */
  send_owed();
  pthread_mutex_lock(&p->m);
  while (!p->permit) pthread_cond_wait(&p->c, &p->m);
  p->permit = 0;
  pthread_mutex_unlock(&p->m);
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

CAMLprim value ulp_parker_set_deferring(value on)
{
  deferring = Bool_val(on);
  return Val_unit;
}

CAMLprim value ulp_parker_flush(value unit)
{
  send_owed();
  return Val_unit;
}

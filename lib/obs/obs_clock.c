/* The process's one wall clock: CLOCK_MONOTONIC in seconds, as an
   unboxed float for native code (no allocation, no OCaml runtime
   calls) and a boxed twin for bytecode. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double xy_obs_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value xy_obs_now(value unit)
{
  return caml_copy_double(xy_obs_now_unboxed(unit));
}

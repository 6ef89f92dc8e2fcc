#pragma once
// The benchmark's host-speed reference: a frozen kernel owned by the
// benchmark, shaped like the simulator's hot loop.
//
// The benchmark host is shared, and its speed for this kind of code
// moves by up to ~1.8x between processes and over minutes.  arch21_e2e
// times one pass right before each timed trial (and a few after each
// set-up), and run.py scales every trial and set-up time to the speed
// at which a pass takes REF_PASS_S.  The kernel never calls into src/,
// so no change to the simulator can move it.

namespace e2e {

/// Host seconds of one pass: a binary-heap event loop over ~36k events
/// with lognormal service draws, a hash map of in-flight ids, and random
/// read-modify-writes of a 4 MiB table.  Every pass does the same work.
/// The first call allocates the table; call it once before timing.
double reference_pass_s();

}  // namespace e2e

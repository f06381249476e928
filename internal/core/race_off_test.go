//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in. The
// coarsest-level identity check runs serially on duals of ~2.7M edges,
// where instrumentation costs half a minute and finds nothing to race.
const raceEnabled = false

package main

// Load-derived Retry-After hints and the byzantine fault mode.
//
// Retry-After: a fixed hint synchronizes every rejected client (and
// every coordinator backoff fronting this worker) onto the same retry
// instant — the herd that overloaded the daemon re-arrives intact. The
// hint is therefore the nominal floor plus deterministic jitter whose
// spread grows with queue occupancy: a briefly busy daemon spreads
// retries over a second or two, a saturated one over several.
//
// Byzantine mode: a corrupt rule on hgpartd.request makes the daemon
// *lie* on the wire — the claimed cut in the response is off by one
// while the computed result, the job table, the WAL, and the result
// cache all stay honest. This is the chaos-drill stand-in for a worker
// with bad RAM or a miscompiled kernel: every layer below the HTTP
// response is intact, so only end-to-end answer verification (the
// coordinator's oracle) can catch it.

import (
	"net/http"
	"strconv"

	"fasthgp/internal/faultinject"
	"fasthgp/internal/serve"
	"fasthgp/internal/splitmix"
)

// retryAfterHint renders a Retry-After value: nominal seconds at the
// floor, plus jitter in [0, spread] where spread climbs from 1 to 4 as
// the admission queue fills.
func (s *server) retryAfterHint(nominal int) string {
	spread := 1 + 3*len(s.sem)/s.cfg.queue
	x := splitmix.Mix64(s.retrySalt.Add(1))
	return strconv.Itoa(nominal + int(x%uint64(spread+1)))
}

// writePartition writes one /partition 200, applying the byzantine
// fault mode to a copy of the response — the caller's value (and any
// cache entry holding it) stays honest.
func (s *server) writePartition(w http.ResponseWriter, resp serve.PartitionResponse, reqIdx int) {
	if faultinject.ShouldCorrupt(faultinject.PointServeRequest, reqIdx) {
		resp.Cut++ // the lie: everything below the response is intact
	}
	s.WriteJSON(w, http.StatusOK, resp)
}

package dist

import (
	"encoding/json"
	"net/http"

	"shadowdb/internal/obs"
)

// HandlerWith extends a node's obs admin mux with the online checker's
// routes:
//
//	GET /checker   checker status (events fed, slots, violations)
//	GET /spans     per-request span breakdowns over the node's own ring
//
// Everything obs.Handler serves (/metrics, /trace, /trace.json, trace
// control, /logs, /healthz, pprof) passes through unchanged, so a node
// that enables online checking keeps the same admin surface plus the two
// checker routes. A non-nil flight Recorder is passed through to
// obs.HandlerWith for the /flight routes.
func HandlerWith(o *obs.Obs, c *Checker, rec *obs.Recorder) http.Handler {
	base := obs.HandlerWith(o, rec)
	mux := http.NewServeMux()
	mux.Handle("/", base)
	mux.HandleFunc("/checker", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := c.Status()
		if len(st.Violations) > 0 {
			// A violated invariant is a failed health check: surface it in
			// the status code so probes and CI can poll without parsing.
			w.WriteHeader(http.StatusConflict)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		spans := Spans(obs.MergeCausal(o.Events()))
		out := struct {
			Spans    []Span                  `json:"spans"`
			Segments map[string]SegmentStats `json:"segments"`
		}{spans, SegmentSummary(spans)}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	return mux
}

package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// The admin HTTP endpoint: an expvar-style JSON metrics dump, trace
// download (a trace file for the dist collector, JSON for humans), trace
// on/off control, and the standard pprof handlers — all on an explicit mux so binaries
// can serve it on a dedicated admin port.

// Handler returns the admin mux for an Obs:
//
//	GET  /metrics        JSON metrics snapshot (Prometheus text when the
//	                     Accept header asks for text/plain)
//	GET  /metrics.prom   Prometheus text exposition, unconditionally
//	GET  /trace          trace file (obs.EncodeTrace; dist.Collector.Pull / DecodeTrace)
//	GET  /trace.json     human-readable trace
//	POST /trace/start    enable trace recording
//	POST /trace/stop     disable trace recording
//	GET  /logs           structured log ring as JSON (?level= filters,
//	                     ?n= caps the record count from the tail)
//	POST /logs/level     set the log level (body or ?level=)
//	GET  /healthz        liveness probe
//	     /debug/pprof/*  net/http/pprof
//
// HandlerWith additionally wires a flight Recorder:
//
//	GET  /flight         list complete bundles in the recorder's dir
//	POST /flight/dump    dump a bundle now (?reason= names it)
func Handler(o *Obs) http.Handler { return HandlerWith(o, nil) }

// HandlerWith is Handler plus the /flight routes when rec is non-nil.
func HandlerWith(o *Obs, rec *Recorder) http.Handler {
	mux := http.NewServeMux()
	prom := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, o.Snapshot())
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus scrapers ask for text/plain; everything else (and
		// bare curls, which send Accept: */*) keeps the JSON dump.
		if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") {
			prom(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Snapshot())
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		prom(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := EncodeTrace(w, o.Events()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		events := o.Events()
		type jsonEvent struct {
			Event
			Pretty string `json:"pretty"`
		}
		out := make([]jsonEvent, len(events))
		for i, e := range events {
			out[i] = jsonEvent{Event: e, Pretty: e.String()}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/trace/start", func(w http.ResponseWriter, r *http.Request) {
		o.EnableTracing(true)
		w.Write([]byte("tracing on\n"))
	})
	mux.HandleFunc("/trace/stop", func(w http.ResponseWriter, r *http.Request) {
		o.EnableTracing(false)
		w.Write([]byte("tracing off, " + strconv.Itoa(len(o.Events())) + " events buffered\n"))
	})
	mux.HandleFunc("/logs", func(w http.ResponseWriter, r *http.Request) {
		records := o.LogRecords()
		if s := r.URL.Query().Get("level"); s != "" {
			lv, err := ParseLevel(s)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			kept := records[:0]
			for _, rec := range records {
				if rec.Level >= lv {
					kept = append(kept, rec)
				}
			}
			records = kept
		}
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(records) {
				records = records[len(records)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Level   string      `json:"level"`
			Dropped int64       `json:"dropped"`
			Records []LogRecord `json:"records"`
		}{o.LogLevel().String(), o.LogDropped(), records})
	})
	mux.HandleFunc("/logs/level", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s := r.URL.Query().Get("level")
		if s == "" {
			body, _ := io.ReadAll(io.LimitReader(r.Body, 64))
			s = strings.TrimSpace(string(body))
		}
		lv, err := ParseLevel(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		o.SetLogLevel(lv)
		w.Write([]byte("log level " + lv.String() + "\n"))
	})
	if rec != nil {
		mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
			dirs, err := ListBundles(rec.Dir())
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Dir     string   `json:"dir"`
				Bundles []string `json:"bundles"`
			}{rec.Dir(), dirs})
		})
		mux.HandleFunc("/flight/dump", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			reason := r.URL.Query().Get("reason")
			if reason == "" {
				reason = "manual"
			}
			dir, err := rec.Dump(reason)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write([]byte(dir + "\n"))
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the admin endpoint on addr (e.g. "127.0.0.1:7070", or
// ":0" for an ephemeral port) and returns the server plus the bound
// address. The caller owns srv.Close.
func Serve(addr string, o *Obs) (*http.Server, string, error) {
	return ServeWith(addr, o, nil)
}

// ServeWith is Serve with a flight Recorder behind /flight.
func ServeWith(addr string, o *Obs, rec *Recorder) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: HandlerWith(o, rec)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

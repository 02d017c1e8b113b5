package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// ServeHTTP serves the registry in the Prometheus text exposition format:
// a Registry is the /metrics handler.
func (r *Registry) ServeHTTP(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(rw)
}

// DebugMux is the handler of a -debug-addr listener: net/http/pprof,
// expvar, and reg's /metrics, registered explicitly on a private mux.
// Relying on net/http/pprof's side effect instead would put the profiler on
// http.DefaultServeMux, which a serving listener must never expose.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", reg)
	return mux
}

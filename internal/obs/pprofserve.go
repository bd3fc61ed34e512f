package obs

import (
	"net"
	"net/http"
)

// ServePprof starts a standalone net/http/pprof listener on addr — the
// -pprof helper for binaries without an HTTP surface of their own
// (cmd/grade10, cmd/experiments); serve and runsim mount pprof on their
// existing servers instead. It returns the bound address (useful with
// ":0") and a shutdown func; the listener serves until shut down.
func ServePprof(addr string) (bound string, shutdown func(), err error) {
	s := NewSurface("grade10 pprof", nil)
	s.EnablePprof()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

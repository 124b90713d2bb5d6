package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"buffopt/internal/server"
)

// bufferdConfig is the server.Config cmd/bufferd builds from its flag
// defaults, bound to an ephemeral loopback port.
func bufferdConfig() server.Config {
	return server.Config{
		Addr:           "127.0.0.1:0",
		Workers:        0, // GOMAXPROCS
		QueueDepth:     64,
		MaxBatch:       64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		MaxBytes:       8 << 20,
		DrainTimeout:   15 * time.Second,
		RetryAfter:     time.Second,
		CacheEntries:   4096,
		CacheBytes:     256 << 20,
	}
}

// daemon is one running server.Server. The untraced path is Server.Run's
// own listener, as in bufferd. With tracing, the same Server's Handler is
// also served on a second loopback listener behind a wrapper that records
// the handler span, so the traced phase shares the cache and sessions the
// untraced phase warmed.
type daemon struct {
	srv    *server.Server
	cancel context.CancelFunc
	runErr chan error
	url    string

	traceURL  string
	traceSrv  *http.Server
	traceDone chan error

	stopOnce sync.Once
	stopErr  error
}

func startDaemon(rec *recorder) (*daemon, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: server.New(bufferdConfig()), cancel: cancel, runErr: make(chan error, 1)}
	go func() { d.runErr <- d.srv.Run(ctx) }()
	select {
	case <-d.srv.Ready():
	case err := <-d.runErr:
		cancel()
		return nil, fmt.Errorf("start server: %w", err)
	}
	d.url = "http://" + d.srv.Addr()
	if rec == nil {
		return d, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("listen for the traced handler: %w", err), d.stop())
	}
	d.traceURL = "http://" + ln.Addr().String()
	d.traceSrv = &http.Server{Handler: rec.wrap(d.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	d.traceDone = make(chan error, 1)
	go func() { d.traceDone <- d.traceSrv.Serve(ln) }()
	return d, nil
}

// stop drains the server and waits until every goroutine it started has
// returned. Later calls return the first call's error.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() { d.stopErr = d.shutdown() })
	return d.stopErr
}

func (d *daemon) shutdown() error {
	var errs []error
	if d.traceSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, d.traceSrv.Shutdown(ctx))
		cancel()
		if err := <-d.traceDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	d.cancel()
	errs = append(errs, <-d.runErr)
	return errors.Join(errs...)
}

// reqHeader carries the benchmark's request id to the traced handler
// wrapper, linking the handler span to the client's spans.
const reqHeader = "X-Bench-Request"

// newClient is a keep-alive HTTP client holding at most conns loopback
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// post sends one JSON body and reads the whole response. traceID > 0
// tags the request for the handler wrapper.
func post(cl *http.Client, url string, body []byte, traceID int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID > 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(traceID, 10))
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

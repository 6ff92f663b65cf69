package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"cmabhs/client"
	"cmabhs/internal/server"
	"cmabhs/internal/telemetry"
	"cmabhs/internal/tracing"
)

// compactEvery is cdt-server's -compact-every default: a job's WAL
// tail is folded into a fresh snapshot once it holds this many rounds.
const compactEvery = 4096

// brokerOptions are the benchmark's hooks into an otherwise default
// broker. Both are nil in untraced runs.
type brokerOptions struct {
	// stateDir, when set, backs the broker with a WALStore there
	// (cdt-server -state-dir <dir> -wal).
	stateDir string
	// wrapStore decorates the WALStore (the traced run's timing
	// decorator).
	wrapStore func(*server.WALStore) server.Store
	// wrapHandler decorates the broker's handler (the traced run's
	// ServeHTTP span).
	wrapHandler func(http.Handler) http.Handler
}

// broker is one in-process broker serving on a loopback listener,
// wired the way cmd/cdt-server wires it with its default flags.
type broker struct {
	srv  *server.Server
	wal  *server.WALStore
	hs   *http.Server
	url  string
	done chan error
}

// startBroker builds, loads, and starts serving a broker. With a state
// dir it runs LoadAll first, exactly as cdt-server does on boot.
func startBroker(opts brokerOptions) (*broker, error) {
	// The INFO access lines are formatted as cdt-server formats them
	// for stderr, then discarded.
	lg, err := tracing.NewLogger(io.Discard, "text", "info")
	if err != nil {
		return nil, err
	}
	srv := server.New()
	srv.MaxJobs = 64
	srv.MaxAdvance = 100_000
	srv.SeriesCapacity = telemetry.DefaultCapacity
	srv.MaxConcurrentAdvances = 16
	srv.Shards = 16
	srv.CompactEvery = compactEvery
	srv.RequestTimeout = 2 * time.Minute
	srv.MaxBodyBytes = 1 << 20
	srv.ShedRetryAfter = time.Second
	srv.Logger = lg
	srv.Tracer = tracing.New(tracing.DefaultCapacity)
	b := &broker{srv: srv, done: make(chan error, 1)}
	if opts.stateDir != "" {
		ws, err := server.NewWALStore(opts.stateDir)
		if err != nil {
			return nil, err
		}
		b.wal = ws
		srv.Store = ws
		if opts.wrapStore != nil {
			srv.Store = opts.wrapStore(ws)
		}
		if err := srv.ValidateCluster(); err != nil {
			_ = ws.Close()
			return nil, err
		}
		if err := srv.LoadAll(); err != nil {
			_ = ws.Close()
			return nil, fmt.Errorf("reload jobs: %w", err)
		}
	}
	h := srv.Handler()
	if opts.wrapHandler != nil {
		h = opts.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.closeStore()
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { b.done <- b.hs.Serve(ln) }()
	return b, nil
}

// stop shuts the listener down and waits for the serve loop to exit.
// It never calls SaveAll: on a WAL store every acknowledged advance is
// already durable, and dropping the broker this way is the crash the
// recovery check replays.
func (b *broker) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := b.closeStore(); err == nil {
		err = cerr
	}
	return err
}

func (b *broker) closeStore() error {
	if b.wal == nil {
		return nil
	}
	return b.wal.Close()
}

// newConnClient returns a client that talks to the broker over exactly
// one keep-alive TCP connection and never retries, so sheds and
// failures surface as they happen. rt, when non-nil, wraps the
// transport (the traced run's RoundTrip span).
func newConnClient(url string, rt func(http.RoundTripper) http.RoundTripper) *client.Client {
	var tr http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     5 * time.Minute,
	}
	if rt != nil {
		tr = rt(tr)
	}
	return client.New(url,
		client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1}),
	)
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- zero allocations on the wire ---------------------------------------------

// pipeServer serves one end of a net.Pipe with the connection loop and
// returns a raw client on the other end.
func pipeServer(tb testing.TB, s *Server, h http.Handler) *rawClient {
	tb.Helper()
	cside, sside := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.newConn(sside, h).serve()
	}()
	tb.Cleanup(func() {
		cside.Close()
		<-done
	})
	return newRawClient(cside)
}

// timeoutHeaderSink keeps the header read below observable.
var timeoutHeaderSink string

// TestConnLoopZeroAllocs drives the connection loop itself over net.Pipe:
// keep-alive /v1/decide and /v1/predict requests, each carrying the
// X-Request-Timeout-Ms header the handlers may read, allocate nothing per
// request at steady state (the client writes preformatted bytes and reads
// into a reused buffer).
func TestConnLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool; alloc gates hold only in normal builds")
	}
	s := newFastServer(t)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		timeoutHeaderSink = r.Header.Get("X-Request-Timeout-Ms")
		s.handler.ServeHTTP(w, r)
	})
	for _, tc := range []struct{ path, body string }{
		{"/v1/decide", `{"features":[12,340,25,4,9,120,0.8,3,2800,320],"mode":"delay"}`},
		{"/v1/predict", `{"features":[12,340,25,4,9,120,0.8,3,2800,320]}`},
	} {
		cl := pipeServer(t, s, h)
		wire := []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: easerd\r\nContent-Type: application/json\r\n"+
			"X-Request-Timeout-Ms: 250\r\nContent-Length: %d\r\n\r\n%s", tc.path, len(tc.body), tc.body))
		run := func() {
			if status, _, err := cl.do(wire); err != nil || status != http.StatusOK {
				t.Fatalf("%s: status %d, %v", tc.path, status, err)
			}
		}
		for i := 0; i < 100; i++ {
			run()
		}
		if got := testing.AllocsPerRun(500, run); got != 0 {
			t.Errorf("%s over the connection loop allocates %v per request, want 0", tc.path, got)
		}
		if timeoutHeaderSink != "250" {
			t.Errorf("%s: handler read X-Request-Timeout-Ms %q, want 250", tc.path, timeoutHeaderSink)
		}
	}
}

// --- the same answers as net/http ---------------------------------------------

// pipeListener hands net.Pipe server ends to an http.Server.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// answer is one response as a client sees it.
type answer struct {
	status int
	body   string
}

// exchange writes raw to a fresh pipe whose far end serve runs, and reads
// final responses (skipping 1xx) until want arrived or the server closed.
// closed reports whether the server closed the connection within linger
// after them.
func exchange(t *testing.T, raw []byte, method string, want int, linger time.Duration, serve func(net.Conn)) (got []answer, closed bool) {
	t.Helper()
	cside, sside := net.Pipe()
	defer cside.Close()
	go serve(sside)
	go func() { _, _ = cside.Write(raw) }()
	_ = cside.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(cside)
	for len(got) < want {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return got, true
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading a %d body: %v", resp.StatusCode, err)
		}
		if resp.StatusCode >= 200 {
			got = append(got, answer{resp.StatusCode, string(body)})
		}
	}
	_ = cside.SetReadDeadline(time.Now().Add(linger))
	_, err := br.Peek(1)
	var ne net.Error
	return got, !(errors.As(err, &ne) && ne.Timeout())
}

func post(proto, path, extra, body string) string {
	return fmt.Sprintf("POST %s %s\r\nHost: easerd\r\n%sContent-Length: %d\r\n\r\n%s", path, proto, extra, len(body), body)
}

const (
	decideBody  = `{"features":[12,340,25,4,9,120,0.8,3,2800,320],"mode":"power"}`
	predictBody = `{"features":[12,340,25,4,9,120,0.8,3,2800,320],"radio":"lte"}`
	simBody     = `{"page":"m.cnn.com","mode":"energy-aware","reading_s":20}`
)

// transportCase is raw request bytes and how many answers they should draw.
type transportCase struct {
	name    string
	raw     string
	method  string
	answers int
	// refused marks a request the transport answers itself: only the
	// status must match net/http's, not its body.
	refused bool
}

var transportCases = []transportCase{
	{name: "pipelined keep-alive POSTs", answers: 3,
		raw: post("HTTP/1.1", "/v1/decide", "", decideBody) + post("HTTP/1.1", "/v1/predict", "", predictBody) +
			post("HTTP/1.1", "/v1/decide", "", `{"features":[1,2,3]}`)},
	{name: "POST then stray CRLF then POST", answers: 2,
		raw: post("HTTP/1.1", "/v1/decide", "", decideBody) + "\r\n" + post("HTTP/1.1", "/v1/predict", "", predictBody)},
	{name: "HTTP/1.0", answers: 2,
		raw: post("HTTP/1.0", "/v1/decide", "", decideBody) + post("HTTP/1.0", "/v1/decide", "", decideBody)},
	{name: "HTTP/1.0 keep-alive", answers: 2,
		raw: post("HTTP/1.0", "/v1/decide", "Connection: keep-alive\r\n", decideBody) + post("HTTP/1.0", "/v1/predict", "", predictBody)},
	{name: "Connection: close", answers: 2,
		raw: post("HTTP/1.1", "/v1/decide", "Connection: close\r\n", decideBody) + post("HTTP/1.1", "/v1/decide", "", decideBody)},
	{name: "Expect: 100-continue", answers: 2,
		raw: post("HTTP/1.1", "/v1/decide", "Expect: 100-continue\r\n", decideBody) + post("HTTP/1.1", "/v1/predict", "", predictBody)},
	{name: "Expect: 100-continue unread", answers: 2,
		raw: "GET /healthz HTTP/1.1\r\nHost: easerd\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\nabc" + post("HTTP/1.1", "/v1/predict", "", predictBody)},
	{name: "Expect: something else", answers: 1, refused: true,
		raw: post("HTTP/1.1", "/v1/decide", "Expect: 200-ok\r\n", decideBody)},
	{name: "chunked body", answers: 2,
		raw: "POST /v1/decide HTTP/1.1\r\nHost: easerd\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", 20, decideBody[:20], len(decideBody)-20, decideBody[20:]) +
			post("HTTP/1.1", "/v1/predict", "", predictBody)},
	{name: "chunked body with trailer", answers: 1,
		raw: "POST /v1/predict HTTP/1.1\r\nHost: easerd\r\nTransfer-Encoding: Chunked\r\n\r\n" +
			fmt.Sprintf("%x;ext=1\r\n%s\r\n0\r\nX-Trailer: yes\r\n\r\n", len(predictBody), predictBody)},
	{name: "HEAD /healthz", method: http.MethodHead, answers: 2,
		raw: "HEAD /healthz HTTP/1.1\r\nHost: easerd\r\n\r\nHEAD /readyz HTTP/1.1\r\nHost: easerd\r\n\r\n"},
	{name: "GET from Go's http.Client", answers: 3,
		raw: "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:8723\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n" +
			"GET /nosuch HTTP/1.1\r\nHost: 127.0.0.1:8723\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n" +
			"GET /v1/decide HTTP/1.1\r\nHost: 127.0.0.1:8723\r\n\r\n"},
	{name: "query string", answers: 1,
		raw: post("HTTP/1.1", "/v1/decide?mode=ignored&x=1", "", decideBody)},
	{name: "percent-encoded path", answers: 2,
		raw: post("HTTP/1.1", "/v1/%64ecide", "", decideBody) + post("HTTP/1.1", "/v1/%7A", "", decideBody)},
	{name: "absolute-form target", answers: 1,
		raw: post("HTTP/1.1", "http://easerd/v1/predict", "", predictBody)},
	{name: "malformed percent-encoding", answers: 1, refused: true,
		raw: post("HTTP/1.1", "/v1/%zzdecide", "", decideBody)},
	{name: "header block over 1 MiB", answers: 1, refused: true,
		raw: post("HTTP/1.1", "/v1/decide", "X-Big: "+strings.Repeat("a", 3<<19)+"\r\n", decideBody)},
	{name: "body over MaxBodyBytes", answers: 1,
		raw: post("HTTP/1.1", "/v1/predict", "", `{"features":[`+strings.Repeat("1,", 4096)+`1]}`)},
	{name: "malformed Content-Length", answers: 1, refused: true,
		raw: "POST /v1/decide HTTP/1.1\r\nHost: easerd\r\nContent-Length: 6x\r\n\r\n" + decideBody},
	{name: "duplicate Content-Length", answers: 1, refused: true,
		raw: "POST /v1/decide HTTP/1.1\r\nHost: easerd\r\nContent-Length: 62\r\nContent-Length: 63\r\n\r\n" + decideBody},
	{name: "identical duplicate Content-Length", answers: 1,
		raw: fmt.Sprintf("POST /v1/decide HTTP/1.1\r\nHost: easerd\r\nContent-Length: %d\r\nContent-Length: %[1]d\r\n\r\n%s", len(decideBody), decideBody)},
	{name: "Transfer-Encoding: gzip", answers: 1, refused: true,
		raw: "POST /v1/decide HTTP/1.1\r\nHost: easerd\r\nTransfer-Encoding: gzip\r\n\r\n" + decideBody},
	{name: "HTTP/1.1 without Host", answers: 1, refused: true,
		raw: fmt.Sprintf("POST /v1/decide HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(decideBody), decideBody)},
	{name: "two Host headers", answers: 1, refused: true,
		raw: post("HTTP/1.1", "/v1/decide", "Host: other\r\n", decideBody)},
	{name: "HTTP/2.0 request line", answers: 1, refused: true,
		raw: post("HTTP/2.0", "/v1/decide", "", decideBody)},
	{name: "malformed request line", answers: 1, refused: true,
		raw: "POST /v1/decide\r\nHost: easerd\r\n\r\n"},
	{name: "space before colon", answers: 1, refused: true,
		raw: post("HTTP/1.1", "/v1/decide", "X-Bad : 1\r\n", decideBody)},
	{name: "control byte in a header value", answers: 1, refused: true,
		raw: post("HTTP/1.1", "/v1/decide", "X-Bad: a\x01b\r\n", decideBody)},
	{name: "bare-LF line endings", answers: 2,
		raw: strings.ReplaceAll(post("HTTP/1.1", "/v1/decide", "", decideBody)+post("HTTP/1.1", "/v1/predict", "", predictBody), "\r\n", "\n")},
	{name: "X-Request-Timeout-Ms on /v1/simulate", answers: 3,
		raw: post("HTTP/1.1", "/v1/simulate", "X-Request-Timeout-Ms: 30000\r\n", simBody) +
			post("HTTP/1.1", "/v1/simulate", "X-Request-Timeout-Ms: 9300000000000\r\n", simBody) +
			post("HTTP/1.1", "/v1/simulate", "X-Request-Timeout-Ms: 18446744073710\r\n", simBody)},
	{name: "eaload's request", answers: 2,
		raw: strings.Repeat("POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1:9\r\nContent-Type: application/json\r\n"+
			fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(predictBody), predictBody), 2)},
}

// TestConnLoopMatchesNetHTTP sends the same raw bytes to the connection loop
// and to net/http, both serving Handler() of one started server (its
// workers run the simulations; a 4 KiB body cap keeps the oversized-body
// case small): every answer's status must match, every handler-produced
// body too, and so must whether the server then closes the connection.
func TestConnLoopMatchesNetHTTP(t *testing.T) {
	s, _ := startServer(t, Config{ModelPath: goldenModelPath, MaxBodyBytes: 4096})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	hs := &http.Server{Handler: s.handler, ReadHeaderTimeout: headerTimeout}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			// A refused over-long head lingers 500 ms before the close on
			// both sides, so the client can read the answer.
			linger := 300 * time.Millisecond
			if tc.refused {
				linger = 2 * time.Second
			}
			want, wantClosed := exchange(t, []byte(tc.raw), method, tc.answers, linger, func(c net.Conn) { ln.conns <- c })
			got, gotClosed := exchange(t, []byte(tc.raw), method, tc.answers, linger, func(c net.Conn) { s.newConn(c, s.handler).serve() })
			if len(got) != len(want) {
				t.Fatalf("loop answered %d times, net/http %d:\n loop %v\n net/http %v", len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].status != want[i].status {
					t.Fatalf("answer %d: loop %d, net/http %d (%q)", i, got[i].status, want[i].status, want[i].body)
				}
				if !tc.refused && got[i].body != want[i].body {
					t.Fatalf("answer %d (%d): loop %q, net/http %q", i, got[i].status, got[i].body, want[i].body)
				}
			}
			if gotClosed != wantClosed {
				t.Fatalf("after the answers the loop closed=%v, net/http closed=%v", gotClosed, wantClosed)
			}
		})
	}
}

// --- fuzzed against net/http ------------------------------------------------------

// scriptConn is a net.Conn that reads a fixed input and keeps what is
// written.
type scriptConn struct {
	r *bytes.Reader
	w bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// seenRequest is what a handler saw of one request.
type seenRequest struct {
	method, path, timeout string
	body                  []byte
	bodyErr               bool
}

// transportRefusals are the statuses the loop answers without calling the
// handler: net/http's server uses the same ones for the same inputs.
var transportRefusals = map[int]bool{400: true, 417: true, 431: true, 501: true, 505: true}

// FuzzServeConn holds the connection loop's parser to http.ReadRequest. When
// ReadRequest rejects the input, the loop never answers 2xx. When it accepts
// it, either the handler sees the same method, path, body and
// X-Request-Timeout-Ms, or the loop refuses the request with one of
// transportRefusals and closes the connection.
//
//	go test ./internal/serve -run=FuzzServeConn -fuzz=FuzzServeConn -fuzztime=20s
func FuzzServeConn(f *testing.F) {
	for _, tc := range transportCases {
		if len(tc.raw) < 64<<10 {
			f.Add([]byte(tc.raw))
		}
	}
	s := newFastServer(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ref seenRequest
		req, refErr := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		if refErr == nil {
			body, err := io.ReadAll(req.Body)
			ref = seenRequest{req.Method, req.URL.Path, req.Header.Get("X-Request-Timeout-Ms"), body, err != nil}
		}
		var seen []seenRequest
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			seen = append(seen, seenRequest{r.Method, r.URL.Path, r.Header.Get("X-Request-Timeout-Ms"), body, err != nil})
			_, _ = w.Write([]byte("ok"))
		})
		sc := &scriptConn{r: bytes.NewReader(raw)}
		s.newConn(sc, h).serve()

		out := bufio.NewReader(&sc.w)
		var resp *http.Response
		for {
			r, err := http.ReadResponse(out, nil)
			if err != nil {
				break
			}
			_, _ = io.Copy(io.Discard, r.Body)
			if r.StatusCode >= 200 {
				resp = r
				break
			}
		}
		if refErr != nil {
			if resp != nil && resp.StatusCode/100 == 2 {
				t.Fatalf("http.ReadRequest rejects %q (%v), but the loop answered %d", raw, refErr, resp.StatusCode)
			}
			return
		}
		if len(seen) > 0 {
			got := seen[0]
			if got.method != ref.method || got.path != ref.path || got.timeout != ref.timeout ||
				!bytes.Equal(got.body, ref.body) || got.bodyErr != ref.bodyErr {
				t.Fatalf("%q: the handler saw %+v, http.ReadRequest %+v", raw, got, ref)
			}
			return
		}
		if resp == nil || !transportRefusals[resp.StatusCode] {
			t.Fatalf("%q: http.ReadRequest accepts it (%+v), the loop neither handled nor refused it (%v)", raw, ref, resp)
		}
		if out.Buffered() > 0 {
			t.Fatalf("%q: the loop refused it with %d but went on answering", raw, resp.StatusCode)
		}
	})
}

// --- lifecycle ---------------------------------------------------------------------

// dialRaw opens a raw keep-alive connection to a started server.
func dialRaw(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

func roundTrip(t *testing.T, c net.Conn, br *bufio.Reader, raw string) *http.Response {
	t.Helper()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp
}

// expectEOF requires the server to have closed the connection.
func expectEOF(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if _, err := br.Peek(1); err != io.EOF && !errors.Is(err, net.ErrClosed) && !isReset(err) {
		t.Fatalf("connection still open: %v", err)
	}
}

func isReset(err error) bool {
	return err != nil && strings.Contains(err.Error(), "connection reset")
}

// TestShutdownClosesIdleConns: a keep-alive connection waiting for its next
// request is closed at once, not after some idle timeout.
func TestShutdownClosesIdleConns(t *testing.T) {
	s, _ := startServer(t, Config{ModelPath: goldenModelPath})
	c, br := dialRaw(t, s)
	if resp := roundTrip(t, c, br, post("HTTP/1.1", "/v1/decide", "", decideBody)); resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("decide: %d close=%v", resp.StatusCode, resp.Close)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Shutdown took %v with only an idle connection open", took)
	}
	expectEOF(t, br)
	if _, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		t.Fatal("the listener still accepts after Shutdown")
	}
}

// wedgeWorker occupies the server's only worker until release is called.
func wedgeWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(block) }) }
	t.Cleanup(release)
	go func() { _ = s.submit(context.Background(), func() { <-block }) }()
	waitFor(t, "worker busy", func() bool { return s.inFlight.Load() == 1 })
	return release
}

// TestShutdownAnswersInFlightWithClose: a request in flight when Shutdown
// starts finishes, is answered with Connection: close, and Shutdown waits
// for it.
func TestShutdownAnswersInFlightWithClose(t *testing.T) {
	s, _ := startServer(t, Config{ModelPath: goldenModelPath, Workers: 1})
	release := wedgeWorker(t, s)
	c, br := dialRaw(t, s)
	if _, err := io.WriteString(c, post("HTTP/1.1", "/v1/simulate", "", simBody)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "simulate queued", func() bool { return len(s.queue) == 1 })
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errc <- s.Shutdown(ctx)
	}()
	waitFor(t, "shutdown started", func() bool { return !s.Ready() })
	select {
	case err := <-errc:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("in-flight simulate: %d close=%v %s", resp.StatusCode, resp.Close, body)
	}
	expectEOF(t, br)
	if err := <-errc; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownStragglersReturnCtxErr: when a request outlives ctx, Shutdown
// cuts its connection, returns ctx's error, and a later call waits for the
// same drain and returns nil once it is done.
func TestShutdownStragglersReturnCtxErr(t *testing.T) {
	s, _ := startServer(t, Config{ModelPath: goldenModelPath, Workers: 1})
	release := wedgeWorker(t, s)
	c, br := dialRaw(t, s)
	if _, err := io.WriteString(c, post("HTTP/1.1", "/v1/simulate", "", simBody)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "simulate queued", func() bool { return len(s.queue) == 1 })
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		errc <- s.Shutdown(ctx)
	}()
	expectEOF(t, br) // the straggler's connection is cut at ctx's end
	release()
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a straggler: %v, want context.DeadlineExceeded", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestHeaderDeadline: a connection that stalls mid-header is closed at the
// header deadline, while an idle keep-alive connection has none.
func TestHeaderDeadline(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", ModelPath: goldenModelPath, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	s.headerTimeout = 100 * time.Millisecond
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	c, br := dialRaw(t, s)
	start := time.Now()
	if _, err := io.WriteString(c, "POST /v1/decide HTTP/1.1\r\nHost: easerd\r\n"); err != nil {
		t.Fatal(err)
	}
	expectEOF(t, br)
	if took := time.Since(start); took < 100*time.Millisecond || took > 3*time.Second {
		t.Fatalf("stalled head closed after %v, want about 100ms", took)
	}

	idle, ibr := dialRaw(t, s)
	for i := 0; i < 2; i++ {
		if resp := roundTrip(t, idle, ibr, post("HTTP/1.1", "/v1/decide", "", decideBody)); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d", i, resp.StatusCode)
		}
		time.Sleep(300 * time.Millisecond) // idle for three header deadlines
	}
}

// TestHTTPClientBodies: Go's http.Client is served with a sized body, a
// chunked body of unknown length and Expect: 100-continue.
func TestHTTPClientBodies(t *testing.T) {
	_, base := startServer(t, Config{ModelPath: goldenModelPath})
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: 5 * time.Second}}
	defer client.CloseIdleConnections()
	var want []byte
	for _, tc := range []struct {
		name   string
		body   func() io.Reader
		expect bool
	}{
		{"sized", func() io.Reader { return strings.NewReader(decideBody) }, false},
		{"chunked", func() io.Reader {
			return io.MultiReader(strings.NewReader(decideBody[:9]), strings.NewReader(decideBody[9:]))
		}, false},
		{"expect", func() io.Reader { return strings.NewReader(decideBody) }, true},
	} {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/decide", tc.body())
		if err != nil {
			t.Fatal(err)
		}
		if tc.expect {
			req.Header.Set("Expect", "100-continue")
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d %s", tc.name, resp.StatusCode, got)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s, want %s", tc.name, got, want)
		}
	}
}

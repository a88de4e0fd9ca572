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
	"strconv"
	"sync"
	"testing"
	"time"
)

// rawClient is one persistent connection sending preformatted requests and
// reading Content-Length responses into a reused buffer, like eaload's and
// bench's clients.
type rawClient struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func newRawClient(c net.Conn) *rawClient {
	return &rawClient{c: c, br: bufio.NewReaderSize(c, 16<<10)}
}

// do writes wire and reads one response; the body is valid until the next
// call.
func (cl *rawClient) do(wire []byte) (int, []byte, error) {
	if _, err := cl.c.Write(wire); err != nil {
		return 0, nil, err
	}
	return cl.read()
}

func (cl *rawClient) read() (int, []byte, error) {
	line, err := cl.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	n := -1
	for {
		line, err = cl.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, err
			}
		}
	}
	if n < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(cl.buf) < n {
		cl.buf = make([]byte, n)
	}
	cl.buf = cl.buf[:n]
	_, err = io.ReadFull(cl.br, cl.buf)
	return status, cl.buf, err
}

func postWire(path, body string) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body))
}

// trivialHandler answers every request with a fixed 3-byte body.
var trivialHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.Header()["Content-Type"] = jsonCTValue
	_, _ = w.Write(okBody)
})

var okBody = []byte("ok\n")

// startTransport serves h on loopback, through the connection loop or
// through net/http, and returns the address.
func startTransport(tb testing.TB, s *Server, h http.Handler, netHTTP bool) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	if netHTTP {
		hs := &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}
		go func() { _ = hs.Serve(ln) }()
		tb.Cleanup(func() { _ = hs.Close() })
		return ln.Addr().String()
	}
	s.ln, s.handler = ln, h
	s.accepting.Store(true)
	s.connWG.Add(1)
	go s.acceptLoop()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// BenchmarkTransport prices the transport on loopback, two connections in
// a closed loop: the connection loop against net/http, each serving a
// trivial handler and Handler()'s /v1/decide.
//
//	go test -run '^$' -bench BenchmarkTransport -benchtime 200000x ./internal/serve
func BenchmarkTransport(b *testing.B) {
	decide := postWire("/v1/decide", `{"features":[12,340,25,4,9,120,0.8,3,2800,320],"mode":"delay"}`)
	trivial := postWire("/v1/decide", `{}`)
	for _, transport := range []string{"loop", "net-http"} {
		for _, handler := range []string{"trivial", "decide"} {
			b.Run(transport+"/"+handler, func(b *testing.B) {
				s := newFastServer(b)
				h, wire := s.Handler(), decide
				if handler == "trivial" {
					h, wire = trivialHandler, trivial
				}
				addr := startTransport(b, s, h, transport == "net-http")
				const conns = 2
				clients := make([]*rawClient, conns)
				for i := range clients {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					clients[i] = newRawClient(c)
					if status, _, err := clients[i].do(wire); err != nil || status != http.StatusOK {
						b.Fatalf("warm-up: status %d, %v", status, err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for i, cl := range clients {
					n := b.N / conns
					if i < b.N%conns {
						n++
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < n; j++ {
							if status, _, err := cl.do(wire); err != nil || status != http.StatusOK {
								b.Errorf("status %d, %v", status, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			})
		}
	}
}

// BenchmarkTransportPipe times the transport rung of the serve ladder: one
// client on a net.Pipe sends /v1/decide to Handler() serving the 400-tree
// model, through the connection loop or through net/http. Its ns/op less
// BenchmarkServeDecide's handler time is what the transport adds to a
// round trip without the kernel's socket path.
//
//	go test -run '^$' -bench BenchmarkTransportPipe -benchtime 100000x ./internal/serve
func BenchmarkTransportPipe(b *testing.B) {
	wire := postWire("/v1/decide", `{"features":[12,340,25,4,9,120,0.8,3,2800,320],"mode":"delay"}`)
	s := loadedServer(b, coreModels(b)["served400"])
	s.accepting.Store(true)
	for _, transport := range []string{"loop", "net-http"} {
		b.Run(transport, func(b *testing.B) {
			var cl *rawClient
			if transport == "loop" {
				cl = pipeServer(b, s, s.handler)
			} else {
				ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
				hs := &http.Server{Handler: s.handler, ReadHeaderTimeout: headerTimeout}
				go func() { _ = hs.Serve(ln) }()
				defer hs.Close()
				cside, sside := net.Pipe()
				defer cside.Close()
				ln.conns <- sside
				cl = newRawClient(cside)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, _, err := cl.do(wire); err != nil || status != http.StatusOK {
					b.Fatalf("status %d, %v", status, err)
				}
			}
		})
	}
}

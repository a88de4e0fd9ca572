package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"eabrowse/internal/stats"
)

// loadConfig is one generator run.
type loadConfig struct {
	addr     string
	path     string
	body     []byte
	rate     float64 // > 0: open loop at this req/s; 0: closed loop
	duration time.Duration
	warmup   time.Duration
	conns    int
	timeout  time.Duration
	budget   int
}

// connStats is one connection's slice of the result; merged in connection
// order at the end so the report is independent of goroutine scheduling.
type connStats struct {
	requests int64
	errors   int64
	non2xx   int64
	lat      *stats.Sketch // microseconds
}

// httpConn is a persistent connection speaking just enough HTTP/1.1 for the
// harness: one preformatted request, Content-Length responses, keep-alive.
// The hot path (roundTrip) allocates nothing.
type httpConn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte
}

// formatRequest preformats the request bytes sent on every round trip.
func formatRequest(cfg *loadConfig) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\n", cfg.path)
	fmt.Fprintf(&b, "Host: %s\r\n", cfg.addr)
	b.WriteString("Content-Type: application/json\r\n")
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(cfg.body))
	b.WriteString("\r\n")
	b.Write(cfg.body)
	return b.Bytes()
}

func dialConn(cfg *loadConfig, req []byte) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", cfg.addr, cfg.timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10), req: req}, nil
}

func (hc *httpConn) close() {
	if hc.c != nil {
		_ = hc.c.Close()
	}
}

// roundTrip sends the preformatted request and fully reads one response,
// returning the status code and whether the server asked to close the
// connection.
func (hc *httpConn) roundTrip(timeout time.Duration) (status int, closeAfter bool, err error) {
	if err = hc.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, true, err
	}
	if _, err = hc.c.Write(hc.req); err != nil {
		return 0, true, err
	}
	return readResponse(hc.br)
}

// readResponse parses one HTTP/1.1 response head and discards the body.
// Only Content-Length framing is supported — easerd's connection loop
// frames every answer with Content-Length.
func readResponse(br *bufio.Reader) (status int, closeAfter bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, true, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, true, fmt.Errorf("malformed status line %q", line)
	}
	status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	if status < 100 || status > 599 {
		return 0, true, fmt.Errorf("bad status in %q", line)
	}
	contentLength := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, true, err
		}
		line = trimCRLF(line)
		if len(line) == 0 {
			break
		}
		if v, ok := headerValue(line, "content-length"); ok {
			n, perr := strconv.Atoi(string(v))
			if perr != nil || n < 0 {
				return 0, true, fmt.Errorf("bad Content-Length %q", v)
			}
			contentLength = n
		} else if v, ok := headerValue(line, "connection"); ok {
			if bytes.EqualFold(v, []byte("close")) {
				closeAfter = true
			}
		} else if v, ok := headerValue(line, "transfer-encoding"); ok {
			return 0, true, fmt.Errorf("unsupported transfer encoding %q", v)
		}
	}
	if contentLength < 0 {
		// No body framing we understand: without Content-Length the only
		// delimiter is connection close, which kills keep-alive throughput.
		return 0, true, fmt.Errorf("response without Content-Length")
	}
	if _, err = br.Discard(contentLength); err != nil {
		return 0, true, err
	}
	return status, closeAfter, nil
}

// trimCRLF strips a trailing \r\n or \n.
func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// headerValue matches a header line against a lower-case name, returning the
// trimmed value.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name)+1 {
		return nil, false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return nil, false
		}
	}
	if line[len(name)] != ':' {
		return nil, false
	}
	v := line[len(name)+1:]
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
		v = v[:len(v)-1]
	}
	return v, true
}

// runLoad executes one run and assembles the report.
func runLoad(cfg loadConfig) (*Report, error) {
	req := formatRequest(&cfg)
	// Fail fast if the server is unreachable before spawning the fleet.
	probe, err := dialConn(&cfg, req)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %v", cfg.addr, err)
	}
	probe.close()

	perConn := make([]connStats, cfg.conns)
	start := time.Now()
	warmupEnd := start.Add(cfg.warmup)
	deadline := warmupEnd.Add(cfg.duration)

	var wg sync.WaitGroup
	for i := 0; i < cfg.conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if cfg.rate > 0 {
				runOpenConn(&cfg, req, id, start, warmupEnd, deadline, &perConn[id])
			} else {
				runClosedConn(&cfg, req, warmupEnd, deadline, &perConn[id])
			}
		}(i)
	}
	wg.Wait()

	rep := &Report{
		Mode:      "closed",
		Conns:     cfg.conns,
		DurationS: cfg.duration.Seconds(),
		WarmupS:   cfg.warmup.Seconds(),
	}
	if cfg.rate > 0 {
		rep.Mode = "open"
		rep.TargetRPS = cfg.rate
	}
	merged := mergeConnStats(perConn, cfg.budget, rep)
	rep.AchievedRPS = float64(rep.Requests) / cfg.duration.Seconds()
	rep.Latency = LatencyUS{
		P50:        merged.Quantile(0.50),
		P95:        merged.Quantile(0.95),
		P99:        merged.Quantile(0.99),
		P999:       merged.Quantile(0.999),
		Mean:       merged.Mean(),
		ErrorBound: merged.ErrorBound(),
	}
	return rep, nil
}

// runOpenConn plays connection id's share of the global arrival schedule:
// arrivals id, id+conns, id+2·conns, ... at start + i/rate. Latency is
// charged from the scheduled arrival, so a backlog on this connection
// surfaces as tail latency instead of disappearing into a slowed-down
// generator.
func runOpenConn(cfg *loadConfig, req []byte, id int, start, warmupEnd, deadline time.Time, cs *connStats) {
	cs.lat = newLatSketch(cfg.budget)
	hc, err := dialConn(cfg, req)
	if err != nil {
		cs.errors++
		return
	}
	defer hc.close()
	interval := float64(time.Second) / cfg.rate
	for i := int64(id); ; i += int64(cfg.conns) {
		scheduled := start.Add(time.Duration(float64(i) * interval))
		if !scheduled.Before(deadline) {
			return
		}
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		record := !scheduled.Before(warmupEnd)
		status, closeAfter, err := hc.roundTrip(cfg.timeout)
		if err != nil {
			if record {
				cs.errors++
			}
			hc.close()
			if hc, err = dialConn(cfg, req); err != nil {
				cs.errors++
				return
			}
			continue
		}
		if record {
			cs.requests++
			if status < 200 || status > 299 {
				cs.non2xx++
			}
			cs.lat.Observe(float64(time.Since(scheduled))/float64(time.Microsecond), 1)
		}
		if closeAfter {
			hc.close()
			if hc, err = dialConn(cfg, req); err != nil {
				cs.errors++
				return
			}
		}
	}
}

// runClosedConn issues requests back to back until the deadline.
func runClosedConn(cfg *loadConfig, req []byte, warmupEnd, deadline time.Time, cs *connStats) {
	cs.lat = newLatSketch(cfg.budget)
	hc, err := dialConn(cfg, req)
	if err != nil {
		cs.errors++
		return
	}
	defer hc.close()
	for {
		sent := time.Now()
		if !sent.Before(deadline) {
			return
		}
		record := !sent.Before(warmupEnd)
		status, closeAfter, err := hc.roundTrip(cfg.timeout)
		if err != nil {
			if record {
				cs.errors++
			}
			hc.close()
			if hc, err = dialConn(cfg, req); err != nil {
				cs.errors++
				return
			}
			continue
		}
		if record {
			cs.requests++
			if status < 200 || status > 299 {
				cs.non2xx++
			}
			cs.lat.Observe(float64(time.Since(sent))/float64(time.Microsecond), 1)
		}
		if closeAfter {
			hc.close()
			if hc, err = dialConn(cfg, req); err != nil {
				cs.errors++
				return
			}
		}
	}
}

// mergeConnStats folds the per-connection counters and sketches (in
// connection order) into the report, returning the merged latency sketch.
func mergeConnStats(cs []connStats, budget int, rep *Report) *stats.Sketch {
	merged := newLatSketch(budget)
	for i := range cs {
		rep.Requests += cs[i].requests
		rep.Errors += cs[i].errors
		rep.Non2xx += cs[i].non2xx
		if cs[i].lat != nil {
			merged.Merge(cs[i].lat)
		}
	}
	return merged
}

func newLatSketch(budget int) *stats.Sketch {
	return stats.NewSketch(budget)
}

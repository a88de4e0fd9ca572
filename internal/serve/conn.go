package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The connection loop serves the listener: one goroutine per connection
// parses HTTP/1.1 requests from a reused bufio.Reader, runs each through
// Handler() on a Request, body reader and ResponseWriter it reuses for the
// life of the connection, and writes a Content-Length-framed response from
// one buffered writer. It replaces net/http's Server, which builds a fresh
// Request, Header map, context and response per request and parks a
// background read goroutine on every keep-alive connection; at steady state
// the loop allocates nothing (TestConnLoopZeroAllocs).
//
// The subset it serves, and what it refuses and with which status, after
// which the connection closes. Where net/http's server refuses the same
// input, the status is the same; folded headers, CONNECT, Content-Length
// with chunked, a Trailer declaration and Transfer-Encoding on HTTP/1.0
// are refused where net/http would serve them.
//
//   - HTTP/1.1 and HTTP/1.0 (keep-alive when asked), pipelined requests,
//     origin-form and absolute-form targets with query strings and
//     percent-encoding (anything beyond plain path bytes goes through
//     url.ParseRequestURI, as in net/http).
//   - Bodies framed by Content-Length (duplicates only if identical) or by
//     Transfer-Encoding: chunked, capped at MaxBodyBytes+1 bytes read, and
//     Expect: 100-continue (the 100 goes out when the handler first reads).
//   - HEAD answers with the GET response's headers and no body.
//   - 400: a malformed request line, header line or Content-Length, a
//     header folded over two lines, HTTP/1.1 without exactly one valid Host,
//     Content-Length together with chunked, a Trailer declaration on a
//     chunked body.
//   - 417: an Expect other than 100-continue. 431: a head over
//     maxHeaderBytes. 501: CONNECT, a Transfer-Encoding other than chunked
//     (on HTTP/1.0 too). 505: an HTTP major version other than 1.
//
// Each request's context is context.Background(): unlike net/http there is
// no background read, so a client that disconnects mid-request does not
// cancel it. /v1/simulate stays bounded by RequestTimeout.

const (
	// headerTimeout bounds a request head's arrival, counted from its first
	// byte (from the accept on a fresh connection), as net/http's
	// ReadHeaderTimeout does. An idle keep-alive connection has no deadline.
	headerTimeout = 5 * time.Second
	// maxHeaderBytes caps a request head: the request line, the header
	// lines and their line ends. A larger head is answered 431.
	maxHeaderBytes = 1 << 20
	// maxDrainBytes is how much of a body the handler left unread the loop
	// discards to keep the connection (net/http's maxPostHandlerReadBytes);
	// past it the connection closes.
	maxDrainBytes = 256 << 10
	// connBufSize is each connection's read buffer and write buffer.
	connBufSize = 4 << 10
	// maxKeptBytes bounds a scratch buffer a connection keeps between
	// requests; a larger one (a big batch answer, a long header line) is
	// dropped once used, so an idle connection holds fixed memory.
	maxKeptBytes = 64 << 10
	// maxInterned and maxInternLen bound each connection's intern table.
	maxInterned  = 64
	maxInternLen = 256
)

// Connection states, as Shutdown sees them.
const (
	connIdle   int32 = iota // waiting for a request's first byte
	connActive              // reading, handling or answering a request
	connClosed              // closed by Shutdown
)

var (
	errHeadTooLarge     = errors.New("serve: request head exceeds 1 MiB")
	errBodyTooLarge     = errors.New("serve: request body too large")
	errMalformedTrailer = errors.New("serve: malformed trailer")
	chunkedTE           = []string{"chunked"}
)

// conn is one client connection and everything it reuses across requests.
type conn struct {
	s     *Server
	h     http.Handler
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	state atomic.Int32

	req    http.Request
	url    url.URL
	hdr    http.Header
	vals   []string // backing store of hdr's single values
	body   body
	w      response
	remote string

	// intern maps header and target bytes to strings already made, so a
	// client repeating its requests costs no string allocation.
	intern  map[string]string
	long    []byte   // a head line longer than br's buffer
	keys    []string // the response's header keys, sorted
	head    []byte   // the response's status line and headers
	date    []byte
	dateSec int64

	armed    bool // the header deadline is set
	lastPost bool
}

func (s *Server) newConn(nc net.Conn, h http.Handler) *conn {
	c := &conn{
		s:      s,
		h:      h,
		nc:     nc,
		br:     bufio.NewReaderSize(nc, connBufSize),
		bw:     bufio.NewWriterSize(nc, connBufSize),
		hdr:    make(http.Header, 8),
		vals:   make([]string, 0, 16),
		remote: nc.RemoteAddr().String(),
		intern: make(map[string]string, maxInterned),
		head:   make([]byte, 0, 256),
		date:   make([]byte, 0, len(http.TimeFormat)),
	}
	c.body.c = c
	c.w.hdr = make(http.Header, 4)
	return c
}

// serve runs the connection until the client leaves, a request asks to
// close, a request is refused, or Shutdown closes it.
func (c *conn) serve() {
	defer func() {
		// Handler() recovers its own panics; this one would be the loop's.
		if rec := recover(); rec != nil {
			c.s.panics.Add(1)
		}
		_ = c.nc.Close()
	}()
	c.arm() // a fresh connection's first head, as net/http
	for c.awaitRequest() && c.serveOne() {
	}
}

// arm starts the header deadline; disarm clears it once the head is in.
func (c *conn) arm() {
	c.armed = true
	_ = c.nc.SetReadDeadline(time.Now().Add(c.s.headerTimeout))
}

func (c *conn) disarm() {
	if c.armed {
		c.armed = false
		_ = c.nc.SetReadDeadline(time.Time{})
	}
}

// buffered returns the bytes read but not yet consumed.
func (c *conn) buffered() []byte {
	b, _ := c.br.Peek(c.br.Buffered())
	return b
}

// awaitRequest waits for the next request's first byte. With nothing
// buffered the connection is idle, and Shutdown may close it. A head not
// yet whole in the buffer arms the header deadline.
func (c *conn) awaitRequest() bool {
	if c.br.Buffered() == 0 {
		c.state.Store(connIdle)
		if !c.s.accepting.Load() {
			return false
		}
		_, err := c.br.Peek(1)
		if !c.state.CompareAndSwap(connIdle, connActive) || err != nil {
			return false
		}
	}
	if !c.armed && !headComplete(c.buffered()) {
		c.arm()
	}
	return true
}

// headComplete reports whether b holds a whole request head: a line end
// followed by an empty line.
func headComplete(b []byte) bool {
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return false
		}
		b = b[i+1:]
		if len(b) > 0 && b[0] == '\n' || len(b) > 1 && b[0] == '\r' && b[1] == '\n' {
			return true
		}
	}
}

// serveOne reads, handles and answers one request, and reports whether the
// connection stays open.
func (c *conn) serveOne() bool {
	if c.lastPost {
		// Old clients end a POST body with a stray line end; net/http
		// tolerates up to four such bytes, and so does the loop.
		b := c.buffered()
		n := 0
		for n < len(b) && n < 4 && (b[n] == '\r' || b[n] == '\n') {
			n++
		}
		_, _ = c.br.Discard(n)
	}
	status := c.readRequest()
	c.disarm()
	switch {
	case status < 0:
		return false
	case status > 0:
		c.refuse(status)
		return false
	}
	c.lastPost = c.req.Method == http.MethodPost
	c.w.reset()
	c.h.ServeHTTP(&c.w, &c.req)

	keep := !c.req.Close && c.s.accepting.Load() && !hasToken(c.w.hdr.Get("Connection"), "close")
	if keep && !c.body.done() {
		// The handler left body bytes on the wire: discard a little to
		// keep the connection, as net/http does, or close. A client still
		// waiting for its 100 Continue never sent the body at all.
		keep = !c.body.expect && c.body.drain()
	}
	c.writeResponse(keep)
	if c.bw.Flush() != nil || !keep {
		return false
	}
	if cap(c.w.body) > maxKeptBytes {
		c.w.body = nil
	}
	if cap(c.long) > maxKeptBytes {
		c.long = nil
	}
	return true
}

// readLine returns the next line without its "\n" or "\r\n", charging it
// to budget. The slice is valid until the next read.
func (c *conn) readLine(budget *int) ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.long = append(c.long[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(c.long) > *budget {
				return nil, errHeadTooLarge
			}
			line, err = c.br.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if len(line) > *budget {
		return nil, errHeadTooLarge
	}
	*budget -= len(line)
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// headFailure maps a read error inside a request head to the refusal
// status, or -1 for a connection to drop without a word (a timeout, a
// reset), as net/http does.
func headFailure(err error) int {
	var ne net.Error
	switch {
	case err == errHeadTooLarge:
		return http.StatusRequestHeaderFieldsTooLarge
	case errors.As(err, &ne) && ne.Timeout():
		return -1
	case err == io.EOF:
		// The client half-closed mid-head.
		return http.StatusBadRequest
	}
	return -1
}

// readRequest parses one request head into c.req and sets up its body. It
// returns 0 for a request to handle, a status to refuse it with, or -1 to
// drop the connection.
func (c *conn) readRequest() int {
	budget := maxHeaderBytes
	line, err := c.readLine(&budget)
	if err != nil {
		return headFailure(err)
	}
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return http.StatusBadRequest
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 {
		return http.StatusBadRequest
	}
	methodB, target, protoB := line[:sp1], line[sp1+1:sp1+1+sp2], line[sp1+2+sp2:]
	if len(methodB) == 0 || !allTchar(methodB) {
		return http.StatusBadRequest
	}
	major, minor, ok := parseVersion(protoB)
	switch {
	case !ok:
		return http.StatusBadRequest
	case major != 1:
		return http.StatusHTTPVersionNotSupported
	}
	method := c.internBytes(methodB)
	if method == http.MethodConnect {
		return http.StatusNotImplemented
	}
	c.req = http.Request{
		Method:     method,
		URL:        &c.url,
		ProtoMajor: 1,
		ProtoMinor: minor,
		Header:     c.hdr,
		Body:       &c.body,
		RemoteAddr: c.remote,
	}
	switch minor {
	case 0:
		c.req.Proto = "HTTP/1.0"
	case 1:
		c.req.Proto = "HTTP/1.1"
	default:
		c.req.Proto = string(protoB)
	}
	if plainPath(target) {
		c.url = url.URL{Path: c.internBytes(target)}
		c.req.RequestURI = c.url.Path
	} else {
		raw := string(target)
		u, err := url.ParseRequestURI(raw)
		if err != nil {
			return http.StatusBadRequest
		}
		c.url = *u
		c.req.RequestURI = raw
	}

	clear(c.hdr)
	c.vals = c.vals[:0]
	var (
		host, te, cl, expect string
		hosts, tes, cls      int
		connClose, keepAlive bool
		trailer              bool
	)
	for {
		line, err = c.readLine(&budget)
		if err != nil {
			return headFailure(err)
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !allTchar(line[:colon]) {
			return http.StatusBadRequest // also a folded line: it starts with SP or HT
		}
		val := trimOWS(line[colon+1:])
		if !validValue(val) {
			return http.StatusBadRequest
		}
		keyB := line[:colon]
		canonicalizeKey(keyB)
		key, v := c.internBytes(keyB), c.internBytes(val)
		switch key {
		case "Host":
			hosts++
			host = v
			continue // net/http moves it to Request.Host
		case "Transfer-Encoding":
			tes++
			te = v
			continue
		case "Content-Length":
			cls++
			if cls > 1 {
				if v != cl {
					return http.StatusBadRequest
				}
				continue
			}
			cl = v
		case "Connection":
			connClose = connClose || hasToken(v, "close")
			keepAlive = keepAlive || hasToken(v, "keep-alive")
		case "Expect":
			if expect == "" {
				expect = v
			}
		case "Trailer":
			trailer = true
		}
		c.addHeader(key, v)
	}

	switch {
	case hosts > 1, hosts == 1 && !validHost(host), hosts == 0 && minor >= 1:
		return http.StatusBadRequest
	}
	c.req.Host = c.url.Host
	if c.req.Host == "" {
		c.req.Host = host
	}
	if minor == 0 {
		c.req.Close = connClose || !keepAlive
	} else {
		c.req.Close = connClose
	}

	chunked := false
	if tes > 0 {
		if tes > 1 || minor == 0 || !strings.EqualFold(te, "chunked") {
			return http.StatusNotImplemented
		}
		if cls > 0 || trailer {
			return http.StatusBadRequest
		}
		chunked = true
	}
	var n int64
	if cls > 0 {
		u, err := strconv.ParseUint(cl, 10, 63)
		if err != nil {
			return http.StatusBadRequest
		}
		n = int64(u)
	}
	// The body reader stops one byte past the cap, so the handler can tell
	// and answer 413.
	limit := c.s.cfg.MaxBodyBytes
	if limit < math.MaxInt64 {
		limit++
	}
	c.body.reset(chunked, n, limit)
	if chunked {
		c.req.ContentLength = -1
		c.req.TransferEncoding = chunkedTE
	} else {
		c.req.ContentLength = n
	}
	if hasToken(expect, "100-continue") {
		c.body.expect = minor >= 1 && c.req.ContentLength != 0
	} else if expect != "" {
		return http.StatusExpectationFailed
	}
	return 0
}

// addHeader adds one request header value without allocating a slice for
// the common single-valued key.
func (c *conn) addHeader(key, v string) {
	if vv, ok := c.hdr[key]; ok {
		c.hdr[key] = append(vv, v)
		return
	}
	c.vals = append(c.vals, v)
	n := len(c.vals)
	c.hdr[key] = c.vals[n-1 : n : n]
}

// internBytes returns b as a string, reusing the string made the first time
// this connection saw the same bytes.
func (c *conn) internBytes(b []byte) string {
	if s, ok := c.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(c.intern) < maxInterned && len(b) <= maxInternLen {
		c.intern[s] = s
	}
	return s
}

// refuse answers a request the loop will not hand to the handler. The
// connection closes after it; for a too-large head the loop half-closes and
// lingers first, so the client can read the answer before a reset, as
// net/http does.
func (c *conn) refuse(status int) {
	text := strconv.Itoa(status) + " " + http.StatusText(status)
	b := append(c.head[:0], "HTTP/1.1 "...)
	b = append(b, text...)
	b = append(b, "\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(text)), 10)
	b = append(b, "\r\nConnection: close\r\n\r\n"...)
	b = append(b, text...)
	c.head = b
	_, _ = c.bw.Write(b)
	if c.bw.Flush() != nil || status != http.StatusRequestHeaderFieldsTooLarge {
		return
	}
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	time.Sleep(500 * time.Millisecond)
}

// writeResponse frames the handler's buffered answer with Content-Length
// into the write buffer, which serveOne then flushes: one write per answer.
// HEAD gets the headers only.
func (c *conn) writeResponse(keep bool) {
	w := &c.w
	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	b := c.head[:0]
	if c.req.ProtoMinor == 0 {
		b = append(b, "HTTP/1.0 "...)
	} else {
		b = append(b, "HTTP/1.1 "...)
	}
	if status == http.StatusOK {
		b = append(b, "200 OK\r\n"...)
	} else {
		b = strconv.AppendInt(b, int64(status), 10)
		b = append(b, ' ')
		b = append(b, http.StatusText(status)...)
		b = append(b, "\r\n"...)
	}
	c.keys = c.keys[:0]
	for k := range w.hdr {
		switch k {
		case "Content-Length", "Connection", "Transfer-Encoding", "Date":
		default:
			c.keys = append(c.keys, k)
		}
	}
	slices.Sort(c.keys)
	for _, k := range c.keys {
		for _, v := range w.hdr[k] {
			b = appendHeader(b, k, v)
		}
	}
	hasBody := status != http.StatusNoContent && status != http.StatusNotModified
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	b = append(b, "Date: "...)
	b = append(b, c.date...)
	b = append(b, "\r\n"...)
	head := c.req.Method == http.MethodHead
	if hasBody && (!head || len(w.body) > 0) {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(w.body)), 10)
		b = append(b, "\r\n"...)
	}
	switch {
	case !keep:
		b = append(b, "Connection: close\r\n"...)
	case c.req.ProtoMinor == 0:
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.head = b
	_, _ = c.bw.Write(b)
	if hasBody && !head {
		_, _ = c.bw.Write(w.body)
	}
}

// appendHeader appends one header line, turning any CR or LF in the value
// into a space so a value cannot end the line.
func appendHeader(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	for i := 0; i < len(v); i++ {
		ch := v[i]
		if ch == '\r' || ch == '\n' {
			ch = ' '
		}
		b = append(b, ch)
	}
	return append(b, "\r\n"...)
}

// response is the connection's reused ResponseWriter: it buffers the whole
// answer so the loop can frame it with Content-Length. Headers are read
// when the handler returns, not at WriteHeader.
type response struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *response) reset() {
	clear(w.hdr)
	w.status = 0
	w.body = w.body[:0]
}

func (w *response) Header() http.Header { return w.hdr }

func (w *response) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// body is the connection's reused request body: Content-Length or chunked
// framing, at most limit bytes delivered.
type body struct {
	c       *conn
	chunked io.Reader // the current request's chunk decoder, or nil
	remain  int64     // Content-Length bytes still on the wire
	read    int64     // bytes delivered
	limit   int64
	err     error // sticky: io.EOF once the body is complete
	expect  bool  // a 100 Continue is owed before the first read
}

func (b *body) reset(chunked bool, n, limit int64) {
	*b = body{c: b.c, remain: n, limit: limit}
	if chunked {
		b.chunked = httputil.NewChunkedReader(b.c.br)
	} else if n == 0 {
		b.err = io.EOF
	}
}

func (b *body) done() bool { return b.err == io.EOF }

func (b *body) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	c := b.c
	if b.expect {
		b.expect = false
		_, _ = c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		if err := c.bw.Flush(); err != nil {
			b.err = err
			return 0, err
		}
	}
	if b.read >= b.limit {
		b.err = errBodyTooLarge
		return 0, b.err
	}
	if left := b.limit - b.read; int64(len(p)) > left {
		p = p[:left]
	}
	var n int
	var err error
	if b.chunked != nil {
		n, err = b.chunked.Read(p)
		if err == io.EOF {
			err = c.readTrailer()
		}
	} else {
		if int64(len(p)) > b.remain {
			p = p[:b.remain]
		}
		n, err = c.br.Read(p)
		b.remain -= int64(n)
		switch {
		case b.remain == 0:
			err = io.EOF
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		}
	}
	b.read += int64(n)
	b.err = err
	return n, err
}

// Close is a no-op: the loop drains or drops what the handler left.
func (b *body) Close() error { return nil }

// drain discards what the handler left unread, up to maxDrainBytes, and
// reports whether the body is now complete.
func (b *body) drain() bool {
	if b.chunked != nil {
		_, err := io.CopyN(io.Discard, b, maxDrainBytes+1)
		return err == io.EOF
	}
	if b.remain > maxDrainBytes {
		return false
	}
	n, err := b.c.br.Discard(int(b.remain))
	b.remain -= int64(n)
	return err == nil
}

// readTrailer consumes a chunked body's trailer section, whose fields no
// handler reads, and returns io.EOF once the body is complete. It follows
// net/http: two more bytes must arrive; anything but an immediate CRLF
// needs a CRLFCRLF within the read buffer, then parses as a header block.
func (c *conn) readTrailer() error {
	if b, err := c.br.Peek(2); err != nil {
		return io.ErrUnexpectedEOF
	} else if b[0] == '\r' && b[1] == '\n' {
		_, _ = c.br.Discard(2)
		return io.EOF
	}
	for n := 4; ; n++ {
		b, err := c.br.Peek(n)
		if bytes.HasSuffix(b, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errMalformedTrailer
		}
	}
	budget := maxHeaderBytes
	for first := true; ; first = false {
		line, err := c.readLine(&budget)
		if err != nil {
			return io.ErrUnexpectedEOF
		}
		if len(line) == 0 {
			return io.EOF
		}
		continued := line[0] == ' ' || line[0] == '\t'
		line = trimOWS(line)
		if continued {
			// A folded continuation of the previous field.
			if first || !validValue(line) {
				return errMalformedTrailer
			}
			continue
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok || len(k) == 0 || !validValue(trimOWS(v)) {
			return errMalformedTrailer
		}
		for _, ch := range k {
			if !tchar[ch] && ch != ' ' {
				return errMalformedTrailer
			}
		}
	}
}

// parseVersion parses "HTTP/x.y" as net/http's ParseHTTPVersion does.
func parseVersion(b []byte) (major, minor int, ok bool) {
	if len(b) != len("HTTP/1.1") || string(b[:5]) != "HTTP/" || b[6] != '.' ||
		b[5] < '0' || b[5] > '9' || b[7] < '0' || b[7] > '9' {
		return 0, 0, false
	}
	return int(b[5] - '0'), int(b[7] - '0'), true
}

// plainPath reports a target url.ParseRequestURI would return unchanged as
// its Path: a slash, then letters, digits and "/._~-" only.
func plainPath(b []byte) bool {
	if len(b) == 0 || b[0] != '/' {
		return false
	}
	for _, ch := range b {
		if !pathByte[ch] {
			return false
		}
	}
	return true
}

func allTchar(b []byte) bool {
	for _, ch := range b {
		if !tchar[ch] {
			return false
		}
	}
	return true
}

// validValue accepts HTAB, SP, visible ASCII and obs-text, as net/textproto.
func validValue(b []byte) bool {
	for _, ch := range b {
		if ch < ' ' && ch != '\t' || ch == 0x7f {
			return false
		}
	}
	return true
}

func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		if !hostByte[h[i]] {
			return false
		}
	}
	return true
}

func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// canonicalizeKey rewrites a token in place to its canonical header key
// form, as net/textproto does: upper case first and after each dash.
func canonicalizeKey(k []byte) {
	upper := true
	for i, ch := range k {
		if upper && 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		} else if !upper && 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		k[i] = ch
		upper = ch == '-'
	}
}

// hasToken reports whether the comma- or space-separated list v holds
// token, case-insensitively.
func hasToken(v, token string) bool {
	for len(v) > 0 {
		i := strings.IndexAny(v, ", \t")
		if i < 0 {
			return strings.EqualFold(v, token)
		}
		if strings.EqualFold(v[:i], token) {
			return true
		}
		v = v[i+1:]
	}
	return false
}

var tchar, pathByte, hostByte [256]bool

func init() {
	alnum := "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for _, set := range []struct {
		table *[256]bool
		bytes string
	}{
		{&tchar, alnum + "!#$%&'*+-.^_`|~"},
		{&pathByte, alnum + "/._~-"},
		{&hostByte, alnum + "!$%&'()*+,-.:;=[]_~"},
	} {
		for i := 0; i < len(set.bytes); i++ {
			set.table[set.bytes[i]] = true
		}
	}
}

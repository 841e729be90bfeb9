package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"pimtree"
	"pimtree/internal/server"
)

// session is one opened engine with whatever stands in front of it. It is the
// generator's target.
type session struct {
	eng    *pimtree.Engine
	col    *collector
	tr     *tracer
	closed bool

	// Served sessions only.
	srv      *server.Server
	cli      *server.Client
	drained  chan struct{} // one token per FrameDrained
	readDone chan error    // the reader goroutine's exit
	events   uint64        // FrameMatch events read
	readTime time.Duration // time inside ReadEvent (traced runs)
}

// closeStats is what a session leaves behind.
type closeStats struct {
	run      pimtree.RunStats
	serve    server.ServeStats
	wal      pimtree.WALStats
	shutdown time.Duration // Server.Shutdown (served) or Engine.Close
}

// openSession opens the workload's engine, and for a served workload the
// loopback server and one subscribed connection.
func openSession(w workload, col *collector, walDir string, tr *tracer, parent int32) (*session, error) {
	cfg := w.config(walDir)
	if !w.served {
		cfg.OnMatch = col.engineMatch
	}
	id := tr.begin("engine.open", parent, -1)
	eng, err := pimtree.Open(cfg)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", w.name, err)
	}
	s := &session{eng: eng, col: col, tr: tr}
	if !w.served {
		return s, nil
	}
	// Block, with a deep queue: a dropped match would be a lost latency
	// sample and a failed op, and the reader below never stops reading.
	s.srv, err = server.New(eng, server.Options{Addr: "127.0.0.1:0", SubscriberQueue: 1 << 16, Slow: server.Block})
	if err != nil {
		_, cerr := eng.Close(context.Background())
		return nil, errors.Join(fmt.Errorf("serve %s: %w", w.name, err), cerr)
	}
	s.cli, err = server.Dial(s.srv.Addr().String(), server.DialOptions{Subscribe: true, Timed: true})
	if err != nil {
		_, cerr := s.srv.Shutdown(context.Background())
		return nil, errors.Join(fmt.Errorf("dial %s: %w", w.name, err), cerr)
	}
	s.drained = make(chan struct{}, 1)
	s.readDone = make(chan error, 1)
	go func() { s.readDone <- s.read() }()
	return s, nil
}

// read is the subscriber: it hands every match to the collector, stamped with
// the time its frame came off the wire, until the server closes the stream.
func (s *session) read() error {
	for {
		id := s.tr.begin("server.read_event", -1, -1)
		ev, err := s.cli.ReadEvent()
		s.readTime += s.tr.end(id)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("read event: %w", err)
		}
		switch ev.Type {
		case server.FrameMatch:
			s.events++
			at := int64(-1)
			if s.col.latOn.Load() {
				s.col.ready.Load() // orders the tag reads below after the generator's writes
				at = int64(ev.At.Sub(s.col.start))
			}
			for _, m := range ev.Matches {
				s.col.record(m, at)
			}
		case server.FrameDrained:
			s.drained <- struct{}{}
		case server.FrameError:
			return fmt.Errorf("server error: %s", ev.Err)
		}
	}
}

func (s *session) push(batch []pimtree.Arrival) error {
	if s.cli != nil {
		return s.cli.PushBatch(batch)
	}
	return s.eng.PushBatch(batch)
}

func (s *session) drain() error {
	if s.cli == nil {
		return s.eng.Drain(context.Background())
	}
	if err := s.cli.Drain(); err != nil {
		return err
	}
	select {
	case <-s.drained:
		return nil
	case err := <-s.readDone:
		s.readDone <- err
		return fmt.Errorf("stream ended before the drain acknowledgement: %v", err)
	}
}

// close tears the session down and waits for everything it started. A second
// call does nothing, so a run can defer it for its error paths.
func (s *session) close(parent int32) (closeStats, error) {
	var cs closeStats
	var err error
	if s.closed {
		return cs, nil
	}
	s.closed = true
	start := time.Now()
	if s.srv == nil {
		id := s.tr.begin("engine.close", parent, -1)
		cs.run, err = s.eng.Close(context.Background())
		s.tr.end(id)
	} else {
		id := s.tr.begin("server.shutdown", parent, -1)
		cs.run, err = s.srv.Shutdown(context.Background())
		s.tr.end(id)
		// Shutdown closes the connection after the last match; the reader
		// ends on that EOF.
		err = errors.Join(err, <-s.readDone, s.cli.Close())
		cs.serve = s.srv.Stats()
	}
	cs.shutdown = time.Since(start)
	cs.wal = s.eng.WALStats()
	return cs, err
}

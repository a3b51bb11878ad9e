package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// scrapeOnce GETs url and reads the whole body, returning the time taken.
func scrapeOnce(client *http.Client, url string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || n == 0 {
		return 0, fmt.Errorf("scrape %s: status %d, %d bytes", url, resp.StatusCode, n)
	}
	return d, nil
}

// scraper GETs a /metrics URL at a fixed interval until stopped, the way
// a monitoring system polls a running process.
type scraper struct {
	mu     sync.Mutex
	times  []float64 // ms
	failed int64

	cancel context.CancelFunc
	done   chan struct{}
}

func startScraper(client *http.Client, url string, every time.Duration) *scraper {
	ctx, cancel := context.WithCancel(context.Background())
	s := &scraper{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			d, err := scrapeOnce(client, url)
			s.mu.Lock()
			if err != nil {
				s.failed++
			} else {
				s.times = append(s.times, ms(d))
			}
			s.mu.Unlock()
		}
	}()
	return s
}

// stop ends the polling, waits for the goroutine, and returns the scrape
// times and the number of failed scrapes.
func (s *scraper) stop() ([]float64, int64) {
	s.cancel()
	<-s.done
	return s.times, s.failed
}

package main

import (
	"os"
	"sync/atomic"

	"hmpt/internal/faultfs"
)

// timingFS is the benchmark-side faultfs.FS seam: it passes every cache
// filesystem operation through to the real filesystem and records each
// as an fs.* span, plus the bytes moved while an op is being timed. Only
// traced phases install it.
type timingFS struct {
	inner   faultfs.FS
	tr      *tracer
	read    atomic.Int64 // bytes returned by ReadFile during ops
	written atomic.Int64 // bytes written to staging files during ops
}

func newTimingFS(tr *tracer) *timingFS { return &timingFS{inner: faultfs.OS, tr: tr} }

func (f *timingFS) ReadFile(path string) ([]byte, error) {
	id := f.tr.begin("fs.read")
	b, err := f.inner.ReadFile(path)
	f.tr.end(id)
	if f.tr.inOp() {
		f.read.Add(int64(len(b)))
	}
	return b, err
}

func (f *timingFS) ReadDir(path string) ([]os.DirEntry, error) {
	id := f.tr.begin("fs.readdir")
	defer f.tr.end(id)
	return f.inner.ReadDir(path)
}

func (f *timingFS) MkdirAll(path string, perm os.FileMode) error {
	id := f.tr.begin("fs.mkdir")
	defer f.tr.end(id)
	return f.inner.MkdirAll(path, perm)
}

func (f *timingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	id := f.tr.begin("fs.create")
	file, err := f.inner.CreateTemp(dir, pattern)
	f.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	id := f.tr.begin("fs.rename")
	defer f.tr.end(id)
	return f.inner.Rename(oldpath, newpath)
}

func (f *timingFS) Remove(path string) error {
	id := f.tr.begin("fs.remove")
	defer f.tr.end(id)
	return f.inner.Remove(path)
}

func (f *timingFS) Link(oldpath, newpath string) error {
	id := f.tr.begin("fs.link")
	defer f.tr.end(id)
	return f.inner.Link(oldpath, newpath)
}

func (f *timingFS) Stat(path string) (os.FileInfo, error) {
	id := f.tr.begin("fs.stat")
	defer f.tr.end(id)
	return f.inner.Stat(path)
}

type timedFile struct {
	faultfs.File
	fs *timingFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	id := t.fs.tr.begin("fs.write")
	n, err := t.File.Write(p)
	t.fs.tr.end(id)
	if t.fs.tr.inOp() {
		t.fs.written.Add(int64(n))
	}
	return n, err
}

func (t *timedFile) Close() error {
	id := t.fs.tr.begin("fs.close")
	defer t.fs.tr.end(id)
	return t.File.Close()
}

// fsSpanNames lists every span name timingFS records.
var fsSpanNames = []string{"fs.read", "fs.readdir", "fs.mkdir", "fs.create", "fs.write", "fs.close", "fs.rename", "fs.remove", "fs.link", "fs.stat"}

// Package fsatomic publishes files atomically: content is staged into a
// uniquely named temporary file in the target directory and renamed over
// the destination in one step. Readers therefore only ever observe a
// complete file — never a partial write — and any number of concurrent
// writers (goroutines or separate processes sharing one cache directory)
// can publish the same path without tearing each other's entries; the
// last rename wins whole. Both content-addressed on-disk caches (the
// snapshot cache and the analysis cache) publish through this package,
// which is what makes them safe for concurrent multi-process campaigns.
package fsatomic

// Publish atomically writes data to path. The temporary file is created
// in path's directory (renames across filesystems are not atomic) with a
// unique name, so concurrent publishers never collide on the staging
// file; on any failure the staging file is removed and the destination
// is untouched.
func Publish(path string, data []byte) error {
	return PublishFS(nil, path, data)
}

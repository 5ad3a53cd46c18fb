//! Host-side measurement helpers: heap in use, peak resident memory,
//! order statistics, fingerprints, and the run's environment record.

#[repr(C)]
struct Mallinfo2 {
    /// `arena`, `ordblks`, `smblks`, `hblks`, `hblkhd`, `usmblks`,
    /// `fsmblks`, `uordblks`, `fordblks`, `keepcost`.
    fields: [usize; 10],
}

extern "C" {
    fn mallinfo2() -> Mallinfo2;
}

/// Heap bytes the C allocator holds in use for this process: chunks in
/// its arenas (`uordblks`) plus directly mapped ones (`hblkhd`). Rust's
/// system allocator sits on it, so this counts every Rust allocation.
pub fn heap_in_use_bytes() -> i64 {
    // SAFETY: `mallinfo2` takes no arguments, returns its struct by value
    // and only reads the allocator's own bookkeeping.
    let info = unsafe { mallinfo2() };
    (info.fields[7] + info.fields[4]) as i64
}

/// Peak resident set size of this process so far, in MiB: the kernel's
/// high-water mark of this program's address space (`VmHWM`). Unlike
/// `getrusage`'s `ru_maxrss`, it does not carry over the launcher's
/// resident set across `exec`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` of `xs`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The commit the checkout was made from, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The cargo profile this binary was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "dev"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn heap_in_use_sees_an_allocation() {
        // Other tests allocate concurrently, so compare against a block
        // far larger than anything they hold.
        let before = heap_in_use_bytes();
        let v = std::hint::black_box(vec![1u8; 64 << 20]);
        assert!(heap_in_use_bytes() - before >= 48 << 20);
        drop(v);
        assert!(heap_in_use_bytes() - before < 16 << 20);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}

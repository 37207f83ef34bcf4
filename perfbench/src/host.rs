//! Host provenance (CPU model, SIMD flags, CPU count) and the
//! process's peak memory.

/// CPU model, SIMD feature flags and CPU count, printed with every
/// result set so numbers are never compared across unlike hosts.
pub fn fingerprint() -> String {
    format!(
        "cpu=\"{}\" simd={} nproc={}",
        cpu_model(),
        simd_flags(),
        crate::nproc()
    )
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x80000000 reports the highest extended leaf; the brand
    // string lives in leaves 0x80000002..=0x80000004.
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

#[cfg(target_arch = "x86_64")]
fn simd_flags() -> String {
    let mut flags = Vec::new();
    if is_x86_feature_detected!("sse4.1") {
        flags.push("sse4.1");
    }
    if is_x86_feature_detected!("avx2") {
        flags.push("avx2");
    }
    if is_x86_feature_detected!("avx512f") {
        flags.push("avx512f");
    }
    if is_x86_feature_detected!("avx512bw") {
        flags.push("avx512bw");
    }
    if flags.is_empty() {
        "none".into()
    } else {
        flags.join(",")
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_flags() -> String {
    "n/a".into()
}

/// Peak resident set size of this process image, MiB: `VmHWM` from
/// `/proc/self/status`, NaN where that is unavailable.
///
/// `getrusage`'s `ru_maxrss` is not used: Linux carries it across
/// `execve`, so it reports the launcher's (for example cargo's) memory
/// whenever that was larger than the benchmark's own.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fingerprint_names_model_flags_and_cpus() {
        let f = super::fingerprint();
        assert!(
            f.contains("cpu=") && f.contains("simd=") && f.contains("nproc="),
            "{f}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        let mib = super::peak_rss_mib();
        assert!(mib > 0.5 && mib < 65536.0, "{mib}");
    }
}

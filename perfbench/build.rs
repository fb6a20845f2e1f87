//! Records the compiler and profile the benchmark was built with, for
//! the host block every result carries.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for key in ["PROFILE", "OPT_LEVEL", "DEBUG"] {
        let value = std::env::var(key).unwrap_or_default();
        println!("cargo:rustc-env=PERFBENCH_{key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
